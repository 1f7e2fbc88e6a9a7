"""Ablation: which of BAAT's mechanisms buys what.

Full BAAT coordinates four design choices on top of the Fig.-9 monitor:
energy-aware consolidation, migration-preferred stress response, shallow
(rather than full-ladder) DVFS, and discharge rationing to a protected
SoC floor. This ablation disables each in turn and measures throughput
and worst-node aging on stressed days, quantifying the paper's argument
that the *coordination* — not any single lever — delivers the result.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import percent_change
from repro.campaign import RunSpec, run_campaign
from repro.core.policies.baat import BAATPolicy
from repro.core.policies.factory import make_policy
from repro.core.slowdown import SlowdownConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.common import OLD_BATTERY_FADE, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass


class NoConsolidationBAAT(BAATPolicy):
    """BAAT without the cluster-wide consolidation pass."""

    name = "baat/no-consolidation"

    def _consolidation_plan(self, t: float, solar_w: float, fleet) -> None:
        return None


def _variants() -> Dict[str, object]:
    """Label -> picklable policy factory (campaign workers rebuild them)."""
    deep_dvfs = SlowdownConfig(prefer_migration=True, max_throttle_index=10**6)
    no_migration = SlowdownConfig(
        prefer_migration=False, allow_parking=True, max_throttle_index=1
    )
    thin_floor = SlowdownConfig(
        prefer_migration=True, max_throttle_index=1, protected_soc=0.14
    )
    return {
        "baat (full)": functools.partial(make_policy, "baat"),
        "- consolidation": NoConsolidationBAAT,
        "- migration (DVFS+park only)": functools.partial(
            BAATPolicy, config=no_migration
        ),
        "- shallow DVFS (full ladder)": functools.partial(
            BAATPolicy, config=deep_dvfs
        ),
        "- protected floor (thin)": functools.partial(
            BAATPolicy, config=thin_floor
        ),
        "e-buff (no BAAT at all)": functools.partial(make_policy, "e-buff"),
    }


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run every ablation variant on a stressed two-day trace."""
    n_days = 2 if quick else 4
    scenario = sweep_scenario(seed=seed, initial_fade=OLD_BATTERY_FADE)
    mix = ([DayClass.RAINY, DayClass.CLOUDY] * ((n_days + 1) // 2))[:n_days]
    trace = scenario.trace_generator().days(mix)

    specs = [
        RunSpec(scenario=scenario, trace=trace, policy_factory=build, label=label)
        for label, build in _variants().items()
    ]
    results = run_campaign(specs, n_workers=n_workers).results()

    rows: List[Sequence[object]] = []
    for label, result in results.items():
        rows.append(
            (
                label,
                result.throughput_per_day(),
                result.worst_damage_per_day() * 1000.0,
                result.total_downtime_s / 3600.0 / n_days,
                result.migrations,
                result.dvfs_transitions,
            )
        )

    full = results["baat (full)"]
    ebuff = results["e-buff (no BAAT at all)"]
    worst_single_loss = min(
        percent_change(
            full.worst_damage_per_day(), results[label].worst_damage_per_day()
        )
        for label in results
        if label not in ("baat (full)", "e-buff (no BAAT at all)")
    )
    return ExperimentResult(
        exp_id="ablation-baat",
        title="BAAT feature ablation on stressed days (rainy/cloudy, old)",
        headers=(
            "variant",
            "throughput/day",
            "worst fade/day x1e-3",
            "downtime h/day",
            "migr",
            "dvfs",
        ),
        rows=rows,
        headline={
            "full BAAT aging cut vs e-Buff %": (
                1.0 - full.worst_damage_per_day() / ebuff.worst_damage_per_day()
            )
            * 100.0,
            "largest single-feature aging delta %": worst_single_loss,
        },
        notes=(
            "each row removes one mechanism from full BAAT; the paper's "
            "claim is that coordination (hiding + slowing down) beats any "
            "single lever (its BAAT-s / BAAT-h simplifications)"
        ),
    )
