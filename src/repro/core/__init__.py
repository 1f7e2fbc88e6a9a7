"""BAAT: the battery anti-aging treatment framework (paper section IV).

The framework couples battery power monitoring with a workload scheduler
on top of distributed energy storage:

- :class:`~repro.core.controller.BAATController` — computes the five
  aging metrics from each node's sensor-fed metrics tracker and ranks
  battery nodes by the Eq.-6 weighted aging score;
- :mod:`~repro.core.scheduler` — aging-hiding placement/consolidation
  (Fig. 8);
- :mod:`~repro.core.slowdown` — DDT/DR threshold monitoring with VM
  migration preferred over DVFS (Fig. 9);
- :mod:`~repro.core.planner` — planned aging via DoD-goal regulation
  (Eq. 7, Fig. 10);
- :mod:`~repro.core.policies` — the four comparable management schemes of
  Table 4 (e-Buff, BAAT-s, BAAT-h, BAAT) plus the planned-aging variant.
"""

from repro.core.controller import BAATController
from repro.core.scheduler import AgingHidingScheduler
from repro.core.slowdown import SlowdownConfig, SlowdownMonitor
from repro.core.planner import PlannedAgingManager, dod_goal
from repro.core.policies import (
    Policy,
    EBuffPolicy,
    BAATSlowdownPolicy,
    BAATHidingPolicy,
    BAATPolicy,
    PlannedAgingPolicy,
    make_policy,
    POLICY_NAMES,
)

__all__ = [
    "BAATController",
    "AgingHidingScheduler",
    "SlowdownConfig",
    "SlowdownMonitor",
    "PlannedAgingManager",
    "dod_goal",
    "Policy",
    "EBuffPolicy",
    "BAATSlowdownPolicy",
    "BAATHidingPolicy",
    "BAATPolicy",
    "PlannedAgingPolicy",
    "make_policy",
    "POLICY_NAMES",
]
