"""Fig. 18 — low-SoC duration comparison (availability).

Paper results: e-Buff leaves batteries in the dangerous low-SoC state for
long stretches, risking power-budget violations and single points of
failure; BAAT balances and slows discharge, improving worst-node battery
availability by ~47 % (measured on low-SoC duration statistics).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.availability.soc_stats import availability_improvement, low_soc_stats
from repro.campaign import run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import (
    OLD_BATTERY_FADE,
    POLICIES,
    day_trace,
    policy_specs,
    sweep_scenario,
)
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Compare low-SoC residence per scheme on stressed days."""
    n_days = 2 if quick else 4
    scenario = sweep_scenario(seed=seed, initial_fade=OLD_BATTERY_FADE)
    trace = day_trace(scenario, DayClass.CLOUDY, n_days=n_days)
    results = run_campaign(policy_specs(scenario, trace)).results()

    rows: List[Sequence[object]] = []
    for name in POLICIES:
        stats = low_soc_stats(results[name])
        rows.append(
            (
                name,
                stats.worst_low_soc_fraction * 24.0,  # hours/day
                stats.mean_low_soc_fraction * 24.0,
                stats.downtime_s / 3600.0 / n_days,
                stats.unserved_wh / n_days,
            )
        )

    return ExperimentResult(
        exp_id="fig18",
        title="Low-SoC duration per scheme (cloudy days, old batteries)",
        headers=(
            "scheme",
            "worst node low-SoC h/day",
            "mean low-SoC h/day",
            "downtime h/day",
            "unserved Wh/day",
        ),
        rows=rows,
        headline={
            "BAAT availability improvement %": availability_improvement(
                results["e-buff"], results["baat"]
            ),
        },
        notes=(
            "paper: BAAT improves worst-node battery availability ~47 % "
            "by the statistics of low-SoC duration"
        ),
    )
