"""Fig. 22 — performance benefits of planned aging vs expected service
life.

Paper result: planning the aging rate toward a known discard date can
improve datacenter productivity by up to ~33 % over e-Buff, but the
benefit shrinks at both extremes — a battery installed just before the
datacenter's end-of-life is bounded by the 90 % DoD ceiling, and one
installed far in advance has little unused life to shift.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

from repro.analysis.lifetime import season_day_classes
from repro.analysis.reporting import percent_change
from repro.campaign import RunSpec, run_campaign
from repro.core.policies.planned import PlannedAgingPolicy
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sweep_scenario
from repro.rng import DEFAULT_SEED

QUICK_LIVES = (180.0, 730.0, 2190.0)
FULL_LIVES = (180.0, 365.0, 730.0, 1095.0, 1825.0, 2920.0)
SUNSHINE = 0.4  # stressed enough that battery policy matters


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    service_lives_days: Sequence[float] = (),
) -> ExperimentResult:
    """Sweep the expected service life; compare productivity vs e-Buff
    (one campaign)."""
    if not service_lives_days:
        service_lives_days = QUICK_LIVES if quick else FULL_LIVES
    n_days = 4 if quick else 8

    scenario = sweep_scenario(seed=seed)
    day_classes = season_day_classes(SUNSHINE, n_days, scenario.seed)
    trace = scenario.trace_generator().days(day_classes)

    specs = [RunSpec(scenario=scenario, trace=trace, policy="e-buff")] + [
        RunSpec(
            scenario=scenario,
            trace=trace,
            policy_factory=functools.partial(
                PlannedAgingPolicy, service_life_days=life
            ),
            label=f"life={life!r}",
        )
        for life in service_lives_days
    ]
    results = run_campaign(specs).results()
    baseline = results["e-buff"]

    rows: List[Sequence[object]] = []
    gains = {}
    for life in service_lives_days:
        result = results[f"life={life!r}"]
        goals = result.dod_goals
        mean_goal = sum(goals.values()) / len(goals)
        gain = percent_change(result.throughput, baseline.throughput)
        gains[life] = gain
        rows.append(
            (
                f"{life:.0f} d",
                mean_goal,
                result.throughput_per_day(),
                gain,
                result.worst_damage_per_day() * 1000.0,
            )
        )

    return ExperimentResult(
        exp_id="fig22",
        title="Planned-aging productivity vs expected battery service life",
        headers=(
            "service life",
            "mean DoD goal",
            "throughput/day",
            "vs e-buff %",
            "fade/day x1e-3",
        ),
        rows=rows,
        headline={"max productivity gain %": max(gains.values())},
        notes=(
            "paper: up to ~33 % productivity gain; benefit falls at both "
            "very short (DoD ceiling) and very long (little life to shift) "
            "service horizons"
        ),
    )
