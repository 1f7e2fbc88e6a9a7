"""Policy interface: the hooks the simulation engine calls.

A policy is bound to a cluster (and thereby to the BAAT controller and
helper schemes) before the run starts; afterwards the engine calls:

- :meth:`Policy.place_vm` once per VM at deployment time;
- :meth:`Policy.control_fleet` at every control interval with the fleet
  arrays (the sensor feedback loop);
- :meth:`Policy.on_day_start` at day boundaries (metric windows reset).

A control pass decides on the arrays and acts exclusively through the
cluster's public knobs — placement, migration, DVFS ladders, and per-node
discharge caps — mirroring the real controller's SNMP/driver actuation
paths.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.controller import BAATController
from repro.core.scheduler import AgingHidingScheduler
from repro.datacenter.cluster import Cluster
from repro.datacenter.vm import VM
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slowdown import SlowdownMonitor
    from repro.sim.fleet import FleetState
    from repro.sim.scenario import Scenario


class Policy(abc.ABC):
    """Base class for battery management policies."""

    #: Stable identifier used in experiment tables.
    name: str = "policy"

    def __init__(self) -> None:
        self.cluster: Optional[Cluster] = None
        self.controller: Optional[BAATController] = None
        self.scheduler: Optional[AgingHidingScheduler] = None
        self.scenario: Optional["Scenario"] = None
        #: The Fig.-9 slowdown monitor, for policies that run one.
        self.monitor: Optional["SlowdownMonitor"] = None

    def bind(self, cluster: Cluster, scenario: Optional["Scenario"] = None) -> None:
        """Attach the policy to a cluster, building its controller and
        scheduler. Called once by the simulation engine, which also hands
        over the scenario so policies can derive deployment facts from it
        (e.g. the operating-window end the rationing horizon runs to).
        Binding without a scenario keeps the documented defaults."""
        self.cluster = cluster
        self.scenario = scenario
        self.controller = BAATController(cluster)
        self.scheduler = AgingHidingScheduler(cluster, self.controller)
        self._after_bind()

    def _scenario_window_end_h(self) -> Optional[float]:
        """The bound scenario's operating-window end (local hours), or
        None when bound without a scenario."""
        if self.scenario is None:
            return None
        return self.scenario.operating_window_h[1]

    def _after_bind(self) -> None:
        """Subclass hook run after binding (build monitors etc.)."""

    def _require_bound(self) -> Cluster:
        if self.cluster is None:
            raise ConfigurationError(f"policy {self.name} is not bound to a cluster")
        return self.cluster

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def place_vm(self, vm: VM) -> str:
        """Choose a node for a new VM; returns the node name."""

    def control_fleet(
        self,
        t: float,
        dt: float,
        fleet: "FleetState",
        solar_w: float = 0.0,
    ) -> bool:
        """Periodic control pass (default: no action — e-Buff style).

        ``fleet`` holds every node's battery, tracker and control-plane
        state as arrays: the fleet stepper's own state, or on the
        reference stepper a capture of the objects taken just before the
        pass. A policy decides on the arrays; for the nodes it acts on it
        calls ``fleet.materialize()`` once, acts through the objects, and
        calls ``fleet.refresh_policy_view()`` after. ``solar_w`` is the
        present farm output; the real controller reads it through the
        power-switch module, so policies may use it.

        Returns True: the pass is complete.
        """
        return True

    def on_day_start(self, t: float) -> None:
        """Day-boundary hook: reset assessment windows by default."""
        if self.controller is not None:
            self.controller.reset_window()

    def current_goals(self) -> Dict[str, float]:
        """Present DoD goal per node; empty for a policy that plans none."""
        return {}

    def describe(self) -> str:
        """One-line human description (Table 4 wording)."""
        return self.name
