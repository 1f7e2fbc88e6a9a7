"""Fig. 21 — performance improvement vs planned DoD goal.

Paper result: raising the allowed DoD buys performance, but not linearly —
the 40 % -> 60 % move is "more visible" than 70 % -> 90 %, because very
deep discharge keeps the battery at low SoC (reduced effective lifetime
and more cut-off risk eat the gains).
"""

from __future__ import annotations

import functools
from typing import List, Sequence

from repro.analysis.reporting import percent_change
from repro.campaign import RunSpec, run_campaign
from repro.core.policies.planned import PlannedAgingPolicy
from repro.experiments.base import ExperimentResult
from repro.experiments.common import OLD_BATTERY_FADE, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass

QUICK_DODS = (0.4, 0.6, 0.8, 0.9)
FULL_DODS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    dods: Sequence[float] = (),
) -> ExperimentResult:
    """Sweep a pinned DoD goal on stressed days (one campaign)."""
    if not dods:
        dods = QUICK_DODS if quick else FULL_DODS
    # A cloudy/rainy mix makes battery depth the binding resource without
    # saturating into all-day downtime (pure rainy) or slack (sunny).
    scenario = sweep_scenario(seed=seed, initial_fade=OLD_BATTERY_FADE)
    mix = [DayClass.CLOUDY, DayClass.RAINY, DayClass.CLOUDY]
    if not quick:
        mix = mix * 2
    n_days = len(mix)
    trace = scenario.trace_generator().days(mix)

    specs = [
        RunSpec(
            scenario=scenario,
            trace=trace,
            policy_factory=functools.partial(
                PlannedAgingPolicy, service_life_days=365.0, fixed_dod_goal=dod
            ),
            label=f"dod={dod!r}",
        )
        for dod in dods
    ]
    results = run_campaign(specs).results()

    rows: List[Sequence[object]] = []
    throughputs = {}
    for dod in dods:
        result = results[f"dod={dod!r}"]
        throughputs[dod] = result.throughput
        rows.append(
            (
                f"{dod:.0%}",
                result.throughput_per_day(),
                result.worst_damage_per_day() * 1000.0,
                result.total_downtime_s / 3600.0 / n_days,
            )
        )

    lo, hi = min(dods), max(dods)
    mid = min(dods, key=lambda d: abs(d - 0.6))
    early_gain = percent_change(throughputs[mid], throughputs[lo])
    late_gain = percent_change(throughputs[hi], throughputs[mid])
    return ExperimentResult(
        exp_id="fig21",
        title="Throughput and aging vs planned DoD goal",
        headers=("DoD goal", "throughput/day", "fade/day x1e-3", "downtime h/day"),
        rows=rows,
        headline={
            f"gain {lo:.0%} -> {mid:.0%} %": early_gain,
            f"gain {mid:.0%} -> {hi:.0%} %": late_gain,
        },
        notes=(
            "paper: performance rises with allowed DoD but sublinearly — "
            "the 40->60 % step helps more than 70->90 %"
        ),
    )
