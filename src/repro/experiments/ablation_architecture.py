"""Ablation: per-server batteries vs a rack-shared pool (paper Fig. 7).

BAAT supports both distributed-storage architectures the paper names —
per-server integration (Google style) and a rack-shared pool (Facebook
Open-Rack style). Table 1 implies the trade-off: shared pools spread
cycling across members (smaller aging variation) while per-server
integration gives the controller finer-grained leverage. This ablation
runs e-Buff and BAAT under both architectures on identical weather and
reports aging spread, worst-node aging, and throughput.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.campaign import RunSpec, run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import OLD_BATTERY_FADE, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass

_MATRIX = tuple(
    (architecture, policy)
    for architecture in ("per-server", "rack-pool")
    for policy in ("e-buff", "baat")
)


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the architecture x policy matrix on a stressed trace."""
    n_days = 2 if quick else 4
    base = sweep_scenario(seed=seed, initial_fade=OLD_BATTERY_FADE)
    mix = ([DayClass.CLOUDY, DayClass.RAINY] * ((n_days + 1) // 2))[:n_days]
    trace = base.trace_generator().days(mix)
    # A batch is one architecture: each pair of cells steps as one batch.
    scenarios = {
        "per-server": base,
        "rack-pool": replace(base, architecture="rack-pool"),
    }

    specs = [
        RunSpec(
            scenario=scenarios[architecture],
            trace=trace,
            policy=policy_name,
            label=f"{architecture}|{policy_name}",
        )
        for architecture, policy_name in _MATRIX
    ]
    results = run_campaign(specs, n_workers=n_workers).results()

    rows: List[Sequence[object]] = []
    spreads = {}
    for architecture, policy_name in _MATRIX:
        result = results[f"{architecture}|{policy_name}"]
        fades = [n.fade_added for n in result.nodes]
        spread = (max(fades) - min(fades)) / max(max(fades), 1e-12)
        spreads[(architecture, policy_name)] = spread
        rows.append(
            (
                architecture,
                policy_name,
                result.throughput_per_day(),
                result.worst_damage_per_day() * 1000.0,
                spread,
                result.total_downtime_s / 3600.0 / n_days,
            )
        )

    return ExperimentResult(
        exp_id="ablation-architecture",
        title="Per-server vs rack-pool energy storage, e-Buff and BAAT",
        headers=(
            "architecture",
            "scheme",
            "throughput/day",
            "worst fade/day x1e-3",
            "aging spread",
            "downtime h/day",
        ),
        rows=rows,
        headline={
            "e-Buff aging-spread cut by pooling %": (
                1.0
                - spreads[("rack-pool", "e-buff")]
                / max(spreads[("per-server", "e-buff")], 1e-12)
            )
            * 100.0,
        },
        notes=(
            "pooling naturally evens battery wear (hardware does part of "
            "BAAT-h's job); BAAT's software balancing closes most of the "
            "same gap on the per-server architecture"
        ),
    )
