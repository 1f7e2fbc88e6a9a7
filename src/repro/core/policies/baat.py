"""BAAT: the full coordinated scheme (paper Table 4).

"Coordinate hiding and slowing down techniques to dynamically manage
battery aging":

- placement uses the Eq.-6 weighted aging ranking with Table-3 workload
  profiling (hiding, Fig. 8);
- the Fig.-9 monitor answers low-SoC violations with weighted-target VM
  migration first and DVFS as a fallback, rationing battery discharge at
  critical points (slowing down);
- an energy-aware *consolidation* pass — the "workload consolidation"
  lever of section IV-B — estimates how many servers the present solar
  output plus rationed battery budget can sustain; when the cluster is
  over-committed it migrates VMs off the fastest-aging nodes onto the
  healthiest ones and parks the vacated servers, letting their batteries
  recharge (the route by which BAAT "shift[s] the most likely SoC region
  towards 90 %-100 %", Fig. 19). Parked servers wake as supply recovers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.policies.base import Policy
from repro.core.slowdown import SlowdownConfig, SlowdownMonitor
from repro.datacenter.vm import VM
from repro.errors import MigrationError
from repro.obs import BUS, REGISTRY
from repro.obs.events import ConsolidationEvent, ParkEvent, WakeEvent
from repro.obs.spans import SPANS, caused_by
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fleet import FleetState

#: Minimum seconds between consolidation passes (stop-and-copy churn guard).
CONSOLIDATION_COOLDOWN_S = 1800.0

#: Consolidation never parks below this fraction of the fleet: a
#: datacenter has service obligations, so BAAT sheds load but does not
#: shut the site. Without this floor, heavily loaded configurations would
#: "extend" battery life by simply not computing.
MIN_ACTIVE_FRACTION = 0.5

#: Planning estimate of one server's demand: idle plus a near-saturated
#: dynamic share, because consolidation packs keepers to full utilisation.
#: Deliberately coarse — the real controller also plans from coarse power
#: profiles (Table 3).
TYPICAL_DYNAMIC_SHARE = 0.45


class BAATPolicy(Policy):
    """Full battery anti-aging treatment."""

    name = "baat"

    def __init__(self, config: Optional[SlowdownConfig] = None) -> None:
        super().__init__()
        self.slowdown_config = config or SlowdownConfig(
            prefer_migration=True,
            # One shallow DVFS step only: BAAT prefers migration and
            # consolidation, and deep throttling on idle-dominated servers
            # costs more throughput than the power it saves.
            max_throttle_index=1,
        )
        self.consolidations = 0
        self._last_consolidation_s = -float("inf")

    def _after_bind(self) -> None:
        assert self.cluster is not None
        assert self.controller is not None and self.scheduler is not None
        self.monitor = SlowdownMonitor(
            self.cluster,
            self.controller,
            scheduler=self.scheduler,
            config=self.slowdown_config,
            window_end_h=self._scenario_window_end_h(),
        )

    def place_vm(self, vm: VM) -> str:
        self._require_bound()
        assert self.scheduler is not None
        return self.scheduler.place(vm)

    def control_fleet(
        self,
        t: float,
        dt: float,
        fleet: "FleetState",
        solar_w: float = 0.0,
    ) -> bool:
        """Consolidation first: it is the cluster-wide plan. The Fig.-9
        monitor then handles residual per-node stress on whatever stayed
        up. Both decide on the arrays and act through the objects."""
        assert self.monitor is not None
        plan = self._consolidation_plan(t, solar_w, fleet)
        if plan is not None:
            fleet.materialize()
            action, n_servers = plan
            if action == "wake":
                self._wake(t, n_servers)
            else:
                self._consolidate(t, n_servers)
            # Wakes, parks and migrations move hosting, VMs and caps.
            fleet.refresh_policy_view()
        self.monitor.fleet_control(t, fleet)
        return True

    # ------------------------------------------------------------------
    # Consolidation
    # ------------------------------------------------------------------
    def _per_server_planning_w(self) -> float:
        params = self._require_bound().nodes[0].server.params
        return params.idle_w + TYPICAL_DYNAMIC_SHARE * (params.peak_w - params.idle_w)

    def _consolidation_plan(
        self, t: float, solar_w: float, fleet: "FleetState"
    ) -> Optional[Tuple[str, int]]:
        """What the consolidation pass does this tick: ``("wake", n)``
        wakes parked nodes toward ``n`` active on solar headroom,
        ``("consolidate", n)`` consolidates onto ``n`` supportable
        servers, None does nothing.

        Wake on *solar* headroom only: parked batteries are deliberately
        being preserved, so recharged charge alone must not trigger a
        wake (that oscillates park/wake and burns the hoard). Consolidate
        only under demonstrated battery stress: with full batteries in
        the morning the instantaneous-solar supportable estimate is
        pessimistic (midday generation is still to come), and parking
        then would needlessly forfeit throughput.
        """
        assert self.monitor is not None
        per_server = self._per_server_planning_w()
        n_off = int(fleet.policy_off_mask.sum())
        n_active = fleet.n - n_off
        solar_supportable = int(solar_w // per_server)
        if solar_supportable > n_active and n_off > 0:
            return "wake", solar_supportable
        supportable = int(
            (solar_w + self._battery_budget_w_fleet(t, fleet)) // per_server
        )
        if supportable >= n_active:
            return None
        thr, _floor = self.monitor._fleet_thresholds(fleet)
        if not ((fleet.soc < thr) & ~fleet.policy_off_mask).any():
            return None
        if t - self._last_consolidation_s < CONSOLIDATION_COOLDOWN_S:
            return None
        return "consolidate", supportable

    def _battery_budget_w_fleet(self, t: float, fleet: "FleetState") -> float:
        """Aggregate sustainable battery power: per node, the charge above
        the protected SoC floor rationed over the remaining window,
        summed in node order.

        Parked (``policy_off``) nodes are excluded: their discharge cap
        is 0 W, so their hoarded charge cannot be spent on load and must
        not inflate the supportable-server estimate.
        """
        assert self.monitor is not None
        tod_h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        remaining_s = max(
            600.0, (self.monitor.window_end_h - tod_h) * SECONDS_PER_HOUR
        )
        der = fleet.derived_now()
        v = fleet.ocv(fleet.soc, der)
        _thr, floor = self.monitor._fleet_thresholds(fleet)
        usable = np.maximum(0.0, (fleet.soc - floor) * der["eff_cap"])
        terms = usable * v * SECONDS_PER_HOUR / remaining_s
        return float(sum(terms[~fleet.policy_off_mask].tolist()))

    def _wake(self, t: float, solar_supportable: int) -> None:
        """Wake parked nodes, healthiest first, until ``solar_supportable``
        are active. Each wake grows the active count toward the solar
        headroom; counting the woken node on the active side (rather than
        decrementing the headroom against a stale active snapshot) keeps
        the accounting honest if either side ever changes mid-loop."""
        cluster = self._require_bound()
        assert self.controller is not None
        n_active = sum(1 for n in cluster if not n.server.policy_off)
        for node, _score in self.controller.rank_nodes(up_only=False):
            if not node.server.policy_off:
                continue
            node.server.policy_off = False
            node.discharge_cap_w = float("inf")
            if BUS.enabled:
                BUS.emit(
                    WakeEvent(
                        t=t,
                        span_id=SPANS.open_id("parked", node.name),
                        node=node.name,
                        reason="solar-headroom",
                    )
                )
                SPANS.end("parked", node=node.name, t=t)
            self._rebalance_onto(node.name)
            n_active += 1
            if n_active >= solar_supportable:
                break

    def _consolidate(self, t: float, supportable: int) -> None:
        """Migrate VMs off the fastest-aging nodes onto the healthiest
        ``supportable`` ones (at least half the fleet) and park the
        vacated servers."""
        cluster = self._require_bound()
        assert self.controller is not None
        n_active = sum(1 for n in cluster if not n.server.policy_off)
        self._last_consolidation_s = t
        self.consolidations += 1

        floor = max(1, math.ceil(MIN_ACTIVE_FRACTION * len(cluster.nodes)))
        keep = max(floor, supportable)
        ranked = self.controller.rank_nodes(up_only=False)  # slowest-aging first
        keepers = {node.name for node, _ in ranked[:keep]}
        victims = [node for node, _ in ranked[keep:] if not node.server.policy_off]

        cause = 0
        if BUS.enabled:
            plan = ConsolidationEvent(
                t=t,
                supportable=supportable,
                n_active=n_active,
                n_victims=len(victims),
            )
            BUS.emit(plan)
            cause = plan.eid
        if REGISTRY.enabled:
            REGISTRY.counter("baat/consolidations").inc()

        # The consolidation span groups the epoch's migrations and parks,
        # all caused by the plan event above.
        with SPANS.span("consolidation", t=t, cause=cause), caused_by(cause):
            for victim in reversed(victims):  # worst-aging first
                for vm in list(victim.server.vms):
                    target = self._target_among(vm, victim.name, keepers)
                    if target is None:
                        continue
                    try:
                        cluster.migrate(vm.name, target)
                    except MigrationError:
                        continue
                if victim.server.vms:
                    # Unmovable VMs keep their host up (throttled/rationed
                    # by the monitor) — parking them would zero their
                    # progress.
                    continue
                victim.server.policy_off = True
                victim.discharge_cap_w = 0.0
                if BUS.enabled:
                    span_id = SPANS.start("parked", node=victim.name, t=t)
                    BUS.emit(
                        ParkEvent(
                            t=t,
                            span_id=span_id,
                            node=victim.name,
                            reason="consolidation",
                        )
                    )

    def _rebalance_onto(self, woken: str) -> None:
        """Move one VM from the most CPU-loaded up node onto a just-woken
        node, undoing consolidation pressure as supply returns."""
        cluster = self._require_bound()
        donors = sorted(
            (n for n in cluster if n.is_up and not n.server.policy_off and n.name != woken),
            key=lambda n: -sum(v.workload.mean_util for v in n.server.vms),
        )
        for donor in donors:
            load = sum(v.workload.mean_util for v in donor.server.vms)
            if load <= 1.0 or not donor.server.vms:
                break
            vm = max(donor.server.vms, key=lambda v: v.workload.mean_util)
            if cluster.can_migrate(vm.name, woken):
                try:
                    cluster.migrate(vm.name, woken)
                except MigrationError:
                    continue
                return

    def _target_among(self, vm: VM, source: str, keepers: set) -> Optional[str]:
        """Healthiest keeper that can host the VM."""
        assert self.controller is not None
        cluster = self._require_bound()
        for node, _score in self.controller.rank_nodes(up_only=False):
            if node.name == source or node.name not in keepers:
                continue
            if cluster.can_migrate(vm.name, node.name):
                return node.name
        return None

    def describe(self) -> str:
        return (
            "Coordinate hiding and slowing down techniques to dynamically "
            "manage battery aging"
        )
