"""Shared helpers for the figure experiments."""

from __future__ import annotations

from typing import List, Sequence

from repro.campaign import RunSpec
from repro.rng import DEFAULT_SEED
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace
from repro.solar.weather import DayClass

#: Coarser step used by multi-run sweeps (validated against dt=60).
SWEEP_DT_S = 120.0

#: The Table-4 schemes in presentation order.
POLICIES = ("e-buff", "baat-s", "baat-h", "baat")

#: Capacity fade that makes a battery "old" in the Fig. 13 sense
#: (roughly halfway to end of life).
OLD_BATTERY_FADE = 0.10


def sweep_scenario(
    seed: int = DEFAULT_SEED,
    initial_fade: float = 0.0,
    **overrides,
) -> Scenario:
    """A scenario tuned for sweeps: coarse step, otherwise the prototype.

    Sweep cells run on the fleet stepper, so a figure's cells with one
    batch key (per-server and rack-pool cells have different keys) step
    as one batched fleet.
    """
    overrides.setdefault("stepper", "fleet")
    return Scenario(dt_s=SWEEP_DT_S, seed=seed, initial_fade=initial_fade, **overrides)


def policy_specs(
    scenario: Scenario,
    trace: SolarTrace,
    policies: Sequence[str] = POLICIES,
    prefix: str = "",
) -> List[RunSpec]:
    """One campaign cell per named scheme over identical weather,
    labelled ``prefix + name``."""
    return [
        RunSpec(scenario=scenario, trace=trace, policy=name, label=prefix + name)
        for name in policies
    ]


def day_trace(
    scenario: Scenario, day_class: DayClass, n_days: int = 1
) -> SolarTrace:
    """A repeated-day trace for one weather class."""
    return scenario.trace_generator().days([day_class] * n_days)
