"""Fig. 20 — impact of the four schemes on workload throughput.

Paper results for one day of operation: e-Buff looks best until battery
cut-offs take servers down (zero throughput during downtime); BAAT-s pays
a DVFS speed penalty; BAAT-h pays migration stop-and-copy overhead; BAAT
coordinates and delivers up to +28 % over e-Buff in the worst case
(cloudy day, old batteries).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.reporting import percent_change
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

CELLS = (
    ("cloudy/old", DayClass.CLOUDY, OLD_BATTERY_FADE),
    ("rainy/old", DayClass.RAINY, OLD_BATTERY_FADE),
)


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Per-scheme daily throughput on stressed days (one campaign)."""
    n_days = 2 if quick else 4
    specs = []
    for label, day_class, fade in CELLS:
        scenario = sweep_scenario(seed=seed, initial_fade=fade)
        trace = day_trace(scenario, day_class, n_days=n_days)
        specs += policy_specs(scenario, trace, POLICIES, prefix=f"{label}|")
    results = run_campaign(specs).results()

    rows: List[Sequence[object]] = []
    worst_gain = 0.0
    for label, *_ in CELLS:
        base = results[f"{label}|e-buff"].throughput
        for name in POLICIES:
            r = results[f"{label}|{name}"]
            gain = percent_change(r.throughput, base)
            if name == "baat":
                worst_gain = max(worst_gain, gain)
            rows.append(
                (
                    label,
                    name,
                    r.throughput_per_day(),
                    gain,
                    r.total_downtime_s / 3600.0 / n_days,
                    r.migrations,
                    r.dvfs_transitions,
                )
            )
    return ExperimentResult(
        exp_id="fig20",
        title="Daily compute throughput per scheme (stressed conditions)",
        headers=(
            "cell",
            "scheme",
            "throughput/day",
            "vs e-buff %",
            "downtime h/day",
            "migrations",
            "dvfs",
        ),
        rows=rows,
        headline={"BAAT best gain over e-Buff %": worst_gain},
        notes=(
            "paper: BAAT +28 % over e-Buff in the worst case; e-Buff loses "
            "to cut-off downtime, BAAT-s to DVFS, BAAT-h to migration churn"
        ),
    )
