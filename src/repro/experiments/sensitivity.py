"""Sensitivity analysis: are the headline results calibration-artifacts?

The reproduction's aging model carries calibration constants the paper
does not pin down (mechanism rates, the aging feedback gain, SoC stress
weights). This experiment perturbs the most influential ones and re-runs
the core comparison (e-Buff vs BAAT, stressed days, worst-node fade) to
check that *who wins and roughly by how much* is robust — the property
that makes the reproduction trustworthy.

Perturbations:

- ``feedback x0 / x2`` — the aged-batteries-age-faster gain;
- ``sulphation x0.5 / x2`` — the dominant low-SoC mechanism's rate;
- ``soc-weights flat`` — remove the low-SoC damage weighting entirely
  (every Ah equally harmful), the strongest possible challenge to the
  premise behind PC/DDT-driven management.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.battery.aging.mechanisms import (
    ActiveMassDegradation,
    GridCorrosion,
    Stratification,
    Sulphation,
    WaterLoss,
)
from repro.battery.aging.model import AgingModel
from repro.campaign import RunSpec, run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import OLD_BATTERY_FADE, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulation


class _ScaledSulphation(Sulphation):
    def __init__(self, scale: float):
        self._scale = scale

    def damage(self, cond, dt):
        return self._scale * super().damage(cond, dt)


class _FlatSocActiveMass(ActiveMassDegradation):
    def damage(self, cond, dt):
        if not cond.is_discharging or cond.capacity_ah <= 0:
            return 0.0
        ah = cond.current * dt / 3600.0
        per_cycle_fade = 0.20 / self.lifetime_full_cycles
        return per_cycle_fade * (ah / cond.capacity_ah)


def _mechanisms(variant: str):
    if variant == "sulphation x0.5":
        return [
            GridCorrosion(),
            ActiveMassDegradation(),
            _ScaledSulphation(0.5),
            WaterLoss(),
            Stratification(),
        ]
    if variant == "sulphation x2":
        return [
            GridCorrosion(),
            ActiveMassDegradation(),
            _ScaledSulphation(2.0),
            WaterLoss(),
            Stratification(),
        ]
    if variant == "soc-weights flat":
        return [
            GridCorrosion(),
            _FlatSocActiveMass(),
            Sulphation(),
            WaterLoss(),
            Stratification(),
        ]
    return None  # default mechanisms


def _feedback(variant: str) -> float:
    if variant == "feedback x0":
        return 0.0
    if variant == "feedback x2":
        return 3.0
    return 1.5


VARIANTS = (
    "baseline",
    "feedback x0",
    "feedback x2",
    "sulphation x0.5",
    "sulphation x2",
    "soc-weights flat",
)


def _apply_variant(variant: str, sim: "Simulation") -> None:
    """Swap the perturbed aging model into every battery before stepping.

    Module-level (and bound with :func:`functools.partial`) so the hook
    pickles into campaign worker processes and hashes into cache keys.
    """
    mechanisms = _mechanisms(variant)
    gain = _feedback(variant)
    for node in sim.cluster:
        fade0 = node.battery.capacity_fade
        model = AgingModel(mechanisms=mechanisms, feedback_gain=gain)
        # Preserve the pre-aged state.
        model.state = node.battery.aging.state
        node.battery.aging = model
        assert abs(node.battery.capacity_fade - fade0) < 1e-9


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Perturb the aging calibration and re-measure the BAAT advantage."""
    n_days = 2 if quick else 4
    # The setup hook edits battery objects, which only the reference
    # stepper steps.
    scenario = sweep_scenario(
        seed=seed, initial_fade=OLD_BATTERY_FADE, stepper="reference"
    )
    mix = ([DayClass.CLOUDY, DayClass.RAINY] * ((n_days + 1) // 2))[:n_days]
    trace = scenario.trace_generator().days(mix)
    specs = [
        RunSpec(
            scenario=scenario,
            trace=trace,
            policy=policy,
            setup=functools.partial(_apply_variant, variant),
            label=f"{variant}|{policy}",
        )
        for variant in VARIANTS
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
