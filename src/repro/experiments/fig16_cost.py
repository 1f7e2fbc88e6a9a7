"""Fig. 16 — BAAT reduces annual battery depreciation cost.

Paper results: varying the aging-slowdown threshold changes the cost
benefit; BAAT achieves ~26 % lower annual depreciation than e-Buff.
"Aggressively applying the aging slowdown algorithm is not wise since it
may cause unnecessary performance degradation" — so the sweep also
reports the throughput cost of each threshold.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

from repro.analysis.lifetime import season_day_classes
from repro.analysis.reporting import reduction_percent
from repro.battery.aging.mechanisms import EOL_FADE
from repro.campaign import RunSpec, run_campaign
from repro.core.policies.factory import make_policy
from repro.core.slowdown import SlowdownConfig
from repro.cost.depreciation import DepreciationModel
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sweep_scenario
from repro.rng import DEFAULT_SEED

QUICK_THRESHOLDS = (0.30, 0.40, 0.50)
FULL_THRESHOLDS = (0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
SUNSHINE = 0.5


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    thresholds: Sequence[float] = (),
) -> ExperimentResult:
    """Sweep the slowdown low-SoC threshold and compare annual cost (one
    campaign: the e-Buff baseline and a BAAT cell per threshold)."""
    if not thresholds:
        thresholds = QUICK_THRESHOLDS if quick else FULL_THRESHOLDS
    n_days = 4 if quick else 8

    scenario = sweep_scenario(seed=seed)
    day_classes = season_day_classes(SUNSHINE, n_days, scenario.seed)
    trace = scenario.trace_generator().days(day_classes)
    depreciation = DepreciationModel(scenario.battery, n_batteries=scenario.n_nodes)

    def lifetime_days(result) -> float:
        rate = result.worst_damage_per_day()
        return EOL_FADE / rate if rate > 0 else float("inf")

    def baat_at(threshold: float):
        config = SlowdownConfig(
            low_soc_threshold=threshold,
            recovery_soc=min(0.95, threshold + 0.2),
            protected_soc=max(0.05, threshold - 0.08),
        )
        return functools.partial(
            make_policy, "baat", slowdown_config=config, seed=scenario.seed
        )

    specs = [RunSpec(scenario=scenario, trace=trace, policy="e-buff")] + [
        RunSpec(
            scenario=scenario,
            trace=trace,
            policy_factory=baat_at(threshold),
            label=f"baat@{threshold!r}",
        )
        for threshold in thresholds
    ]
    results = run_campaign(specs).results()

    baseline = results["e-buff"]
    base_life = lifetime_days(baseline)
    base_cost = depreciation.annual_cost_usd(base_life)
    base_thr = baseline.throughput

    rows: List[Sequence[object]] = [
        ("e-buff", base_life, base_cost, 0.0, 0.0)
    ]
    best_cut = 0.0
    for threshold in thresholds:
        result = results[f"baat@{threshold!r}"]
        life = lifetime_days(result)
        cost = depreciation.annual_cost_usd(life)
        cut = reduction_percent(cost, base_cost)
        best_cut = max(best_cut, cut)
        rows.append(
            (
                f"baat @ {threshold:.0%}",
                life,
                cost,
                cut,
                (result.throughput / base_thr - 1.0) * 100.0,
            )
        )

    return ExperimentResult(
        exp_id="fig16",
        title="Annual battery depreciation vs slowdown threshold",
        headers=(
            "scheme",
            "lifetime (days)",
            "annual cost ($)",
            "cost cut %",
            "throughput vs e-buff %",
        ),
        rows=rows,
        headline={"best BAAT cost reduction %": best_cut},
        notes=(
            "paper: ~26 % depreciation reduction for BAAT vs e-Buff; "
            "higher thresholds save more batteries but cost performance"
        ),
    )
