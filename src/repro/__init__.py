"""repro — a reproduction of *BAAT: Towards Dynamically Managing Battery
Aging in Green Datacenters* (Liu et al., DSN 2015).

The package builds, from scratch, every substrate the paper's evaluation
rests on — a five-mechanism lead-acid battery simulator, a solar
generation model, a virtualised server cluster with DVFS and VM
migration — and the BAAT framework itself: the five aging metrics
(NAT / CF / PC / DDT / DR), the weighted aging score, and the hiding /
slowing-down / planned-aging management schemes, compared against the
aggressive e-Buff baseline.

Quick start::

    from repro import Scenario, Simulation, make_policy
    from repro.solar import DayClass

    scenario = Scenario()                       # the paper's 6-node prototype
    trace = scenario.trace_generator().day(DayClass.CLOUDY)
    result = Simulation(scenario, make_policy("baat"), trace).run()
    print(result.throughput_per_day(), result.worst_damage_per_day())

Several runs (a figure's cells) go through the campaign runner instead:
:class:`RunSpec` cells handed to :func:`run_campaign` are cached on disk
and, on the fleet stepper, step as one batched fleet.
"""

from repro.battery import BatteryParams, BatteryUnit
from repro.campaign import (
    CampaignReport,
    ResultCache,
    RunSpec,
    run_campaign,
)
from repro.core import (
    BAATController,
    BAATPolicy,
    BAATHidingPolicy,
    BAATSlowdownPolicy,
    EBuffPolicy,
    PlannedAgingPolicy,
    Policy,
    POLICY_NAMES,
    make_policy,
)
from repro.metrics import AgingMetrics, MetricsTracker
from repro.sim import Scenario, SimResult, Simulation
from repro.solar import DayClass, PVPanel, SolarTrace, SolarTraceGenerator

__version__ = "1.0.0"

__all__ = [
    "BatteryParams",
    "BatteryUnit",
    "CampaignReport",
    "ResultCache",
    "RunSpec",
    "run_campaign",
    "BAATController",
    "BAATPolicy",
    "BAATHidingPolicy",
    "BAATSlowdownPolicy",
    "EBuffPolicy",
    "PlannedAgingPolicy",
    "Policy",
    "POLICY_NAMES",
    "make_policy",
    "AgingMetrics",
    "MetricsTracker",
    "Scenario",
    "SimResult",
    "Simulation",
    "DayClass",
    "PVPanel",
    "SolarTrace",
    "SolarTraceGenerator",
    "__version__",
]
