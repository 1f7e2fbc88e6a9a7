"""Shared helpers for the figure experiments."""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence

from repro.campaign import DEFAULT_CACHE, RunSpec, run_campaign
from repro.rng import DEFAULT_SEED
from repro.sim.results import SimResult
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
    """A scenario tuned for sweeps: coarse step, otherwise the prototype."""
    return Scenario(dt_s=SWEEP_DT_S, seed=seed, initial_fade=initial_fade, **overrides)


def run_policies(
    scenario: Scenario,
    trace: SolarTrace,
    policies: Sequence[str] = POLICIES,
    policy_builder=None,
    n_workers: Optional[int] = None,
    cache=DEFAULT_CACHE,
) -> Dict[str, SimResult]:
    """Run several schemes over identical weather; keyed by policy name.

    ``policy_builder(name) -> Policy`` overrides the default factory (used
    by threshold sweeps). Runs go through the campaign runner: fanned out
    over ``n_workers`` processes (default: the campaign process default)
    and memoized in the on-disk result cache unless ``cache=None``.
    """
    specs = [
        RunSpec(
            scenario=scenario,
            trace=trace,
            policy=None if policy_builder else name,
            policy_factory=(
                functools.partial(policy_builder, name) if policy_builder else None
            ),
            label=name,
        )
        for name in policies
    ]
    report = run_campaign(specs, n_workers=n_workers, cache=cache)
    return report.results()


def day_trace(
    scenario: Scenario, day_class: DayClass, n_days: int = 1
) -> SolarTrace:
    """A repeated-day trace for one weather class."""
    return scenario.trace_generator().days([day_class] * n_days)
