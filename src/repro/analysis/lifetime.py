"""Battery lifetime estimation by accelerated simulation.

The paper extrapolates lifetime from measured aging rates; we do the same
from simulated rates. A policy is run over a short *representative season*
(a reproducible mix of sunny/cloudy/rainy days drawn from a location's
sunshine fraction); the worst battery node's capacity-fade rate over that
season is extrapolated to the 80 %-of-nominal end-of-life floor:

    lifetime_days = (EOL_fade - initial_fade) / (fade per day)

Using the *worst* node matches operational reality (the first battery to
die forces maintenance) and the paper's reporting convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.battery.aging.mechanisms import EOL_FADE
from repro.campaign import DEFAULT_CACHE, RunSpec, run_campaign
from repro.errors import ConfigurationError
from repro.rng import spawn
from repro.sim.results import SimResult
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace
from repro.solar.weather import DayClass, WeatherModel


@dataclass(frozen=True)
class LifetimeEstimate:
    """Lifetime extrapolation for one (policy, scenario) pair."""

    policy_name: str
    lifetime_days: float
    worst_fade_per_day: float
    mean_fade_per_day: float
    season_result: SimResult


def season_day_classes(
    sunshine_fraction: float, n_days: int, seed: int
) -> List[DayClass]:
    """A reproducible day-class sequence for a location.

    All policies evaluated at the same (sunshine fraction, seed) see the
    *identical* weather — the paper's matched-solar-scenario methodology.
    """
    if n_days <= 0:
        raise ConfigurationError("n_days must be positive")
    weather = WeatherModel(sunshine_fraction)
    rng = spawn(seed, f"lifetime/season/{sunshine_fraction:.3f}")
    return weather.sample_days(n_days, rng)


def _estimate_from_result(
    policy_name: str, scenario: Scenario, result: SimResult
) -> LifetimeEstimate:
    """Fold one season result into a lifetime extrapolation."""
    worst_rate = result.worst_damage_per_day()
    mean_rate = result.mean_damage_per_day()
    remaining = max(0.0, EOL_FADE - scenario.initial_fade)
    if worst_rate <= 0.0:
        lifetime = float("inf")
    else:
        lifetime = remaining / worst_rate
    return LifetimeEstimate(
        policy_name=policy_name,
        lifetime_days=lifetime,
        worst_fade_per_day=worst_rate,
        mean_fade_per_day=mean_rate,
        season_result=result,
    )


def lifetime_for_policies(
    scenario: Scenario,
    sunshine_fraction: float = 0.5,
    n_days: int = 6,
    policies: Sequence[str] = ("e-buff", "baat-s", "baat-h", "baat"),
    day_classes: Optional[Sequence[DayClass]] = None,
    n_workers: Optional[int] = None,
    cache=DEFAULT_CACHE,
) -> Dict[str, LifetimeEstimate]:
    """Lifetime estimates for several policies over *identical* weather.

    The season runs go through the campaign runner: one process per
    policy up to ``n_workers`` (default: the campaign process default),
    memoized on disk unless ``cache=None``.
    """
    if day_classes is None:
        day_classes = season_day_classes(sunshine_fraction, n_days, scenario.seed)
    return lifetime_sweep(
        [SweepPoint(scenario, sunshine_fraction, tuple(policies), tuple(day_classes))],
        n_days,
        n_workers=n_workers,
        cache=cache,
    )[0]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a lifetime sweep: a scenario at a sunshine fraction,
    evaluated for ``policies`` (``day_classes`` overrides the season
    sampler)."""

    scenario: Scenario
    sunshine_fraction: float
    policies: Tuple[str, ...]
    day_classes: Optional[Tuple[DayClass, ...]] = None


def lifetime_sweep(
    points: Sequence[SweepPoint],
    n_days: int,
    n_workers: Optional[int] = None,
    cache=DEFAULT_CACHE,
) -> List[Dict[str, LifetimeEstimate]]:
    """:func:`lifetime_for_policies` for every point, as one campaign.

    Handing the runner the whole sweep lets it step every cell that
    shares a batch key as one batched fleet. Points that share a panel,
    seed, step and day sequence share one generated solar trace. Returns
    one ``{policy: estimate}`` per point, in order.
    """
    traces: Dict[Tuple, SolarTrace] = {}
    specs: List[RunSpec] = []
    for k, point in enumerate(points):
        scenario = point.scenario
        day_classes = point.day_classes or tuple(
            season_day_classes(point.sunshine_fraction, n_days, scenario.seed)
        )
        trace_key = (
            scenario.sunny_day_kwh,
            scenario.clear_sky,
            scenario.seed,
            scenario.dt_s,
            day_classes,
        )
        if trace_key not in traces:
            traces[trace_key] = scenario.trace_generator().days(list(day_classes))
        specs += [
            RunSpec(
                scenario=scenario,
                trace=traces[trace_key],
                policy=name,
                label=name if len(points) == 1 else f"{k}/{name}",
            )
            for name in point.policies
        ]
    results = iter(
        run_campaign(specs, n_workers=n_workers, cache=cache).results().values()
    )
    return [
        {
            name: _estimate_from_result(name, point.scenario, next(results))
            for name in point.policies
        }
        for point in points
    ]
