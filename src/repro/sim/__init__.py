"""Simulation engine: scenario assembly, time stepping, and recording.

:class:`~repro.sim.scenario.Scenario` describes an experiment (node count,
battery sizing, solar budget, workloads, seeds); :class:`~repro.sim.
engine.Simulation` executes a policy against a scenario and a solar trace,
producing a :class:`~repro.sim.results.SimResult` with everything the
paper's figures report: throughput, per-node aging metrics, SoC
statistics, downtime, and damage accrual.
"""

from repro.sim.scenario import Scenario
from repro.sim.engine import Simulation
from repro.sim.results import SimResult, NodeResult
from repro.sim.recorder import TraceRecorder

__all__ = [
    "Scenario",
    "Simulation",
    "SimResult",
    "NodeResult",
    "TraceRecorder",
]
