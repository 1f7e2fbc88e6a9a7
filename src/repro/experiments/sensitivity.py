"""Sensitivity analysis: are the headline results calibration-artifacts?

The reproduction's aging model carries calibration constants the paper
does not pin down (mechanism rates, the aging feedback gain, SoC stress
weights). This experiment perturbs the most influential ones and re-runs
the core comparison (e-Buff vs BAAT, stressed days, worst-node fade) to
check that *who wins and roughly by how much* is robust — the property
that makes the reproduction trustworthy.

Perturbations, each a :class:`~repro.battery.params.BatteryParams`
calibration, so all twelve cells step as one batched fleet:

- ``feedback x0 / x2`` — the aged-batteries-age-faster gain;
- ``sulphation x0.5 / x2`` — the dominant low-SoC mechanism's rate;
- ``soc-weights flat`` — remove the low-SoC damage weighting entirely
  (every Ah equally harmful), the strongest possible challenge to the
  premise behind PC/DDT-driven management.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.campaign import RunSpec, run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import OLD_BATTERY_FADE, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass

#: Each variant's changes to the battery's aging calibration.
VARIANTS: Dict[str, Dict[str, object]] = {
    "baseline": {},
    "feedback x0": {"aging_feedback_gain": 0.0},
    "feedback x2": {"aging_feedback_gain": 3.0},
    "sulphation x0.5": {"sulphation_rate_scale": 0.5},
    "sulphation x2": {"sulphation_rate_scale": 2.0},
    "soc-weights flat": {"active_mass_stress_weights": False},
}


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Perturb the aging calibration and re-measure the BAAT advantage."""
    n_days = 2 if quick else 4
    base = sweep_scenario(seed=seed, initial_fade=OLD_BATTERY_FADE)
    mix = ([DayClass.CLOUDY, DayClass.RAINY] * ((n_days + 1) // 2))[:n_days]
    trace = base.trace_generator().days(mix)
    specs = [
        RunSpec(
            scenario=replace(base, battery=replace(base.battery, **calibration)),
            trace=trace,
            policy=policy,
            label=f"{variant}|{policy}",
        )
        for variant, calibration in VARIANTS.items()
        for policy in ("e-buff", "baat")
    ]
    results = run_campaign(specs, n_workers=n_workers).results()

    rows: List[Sequence[object]] = []
    advantages: Dict[str, float] = {}
    for variant in VARIANTS:
        ebuff = results[f"{variant}|e-buff"].worst_damage_per_day()
        baat = results[f"{variant}|baat"].worst_damage_per_day()
        advantage = (1.0 - baat / ebuff) * 100.0 if ebuff > 0 else 0.0
        advantages[variant] = advantage
        rows.append((variant, ebuff * 1000.0, baat * 1000.0, advantage))
    spread = max(advantages.values()) - min(advantages.values())
    return ExperimentResult(
        exp_id="sensitivity",
        title="BAAT's aging advantage under perturbed calibration",
        headers=(
            "calibration variant",
            "e-buff fade/day x1e-3",
            "baat fade/day x1e-3",
            "BAAT aging cut %",
        ),
        rows=rows,
        headline={
            "baseline BAAT aging cut %": advantages["baseline"],
            "advantage spread across variants (pp)": spread,
        },
        notes=(
            "the reproduction's conclusion holds if BAAT's aging cut stays "
            "clearly positive under every perturbation; 'soc-weights flat' "
            "removes the premise of low-SoC-aware management and should "
            "shrink (not erase) the advantage"
        ),
    )
