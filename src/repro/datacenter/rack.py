"""Rack-shared battery power path (Facebook Open-Rack style, Fig. 7 left).

The paper's BAAT "supports two types of distributed energy storage
architectures": per-server batteries (:class:`~repro.datacenter.
power_path.PowerPath`) and *several racks sharing a pool of batteries* —
this module. The differences that matter to aging management:

- the pool bridges the **aggregate** deficit, so one server's spike is
  carried by every battery (shallower per-unit cycling, smaller aging
  variation — Table 1's architecture trade-off);
- when the pool cannot carry the whole rack, servers brown out in
  *worst-deficit-first* order (the rack PDU sheds its hungriest loads);
- surplus solar charges the shared pool (emptiest members first), not a
  particular server's battery.

Policies still see per-node ``discharge_cap_w``; the rack applies their
sum as the pool ceiling, so slowdown rationing remains meaningful.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.battery.pool import BatteryPool
from repro.datacenter.cluster import Cluster
from repro.datacenter.power_path import RESTART_SOC, PowerFlows
from repro.obs import BUS
from repro.obs.events import BrownoutEvent
from repro.obs.telemetry import TELEMETRY
from repro.units import SECONDS_PER_HOUR


class RackPowerPath:
    """Routes power for a cluster whose nodes share one battery pool."""

    def __init__(self, cluster: Cluster, utility_budget_w: float = 0.0):
        self.cluster = cluster
        self.utility_budget_w = utility_budget_w
        self.pool = BatteryPool([n.battery for n in cluster.nodes])

    def step(
        self,
        t: float,
        dt: float,
        solar_w: float,
        rng: Optional[np.random.Generator] = None,
    ) -> PowerFlows:
        """Route one step of power and advance all batteries/servers."""
        nodes = self.cluster.nodes
        n = max(1, len(nodes))

        # --- restart logic: pooled prospect -------------------------------
        per_node_solar = solar_w / n
        pool_power_share = self.pool.max_discharge_power() / n
        for node in nodes:
            if node.server.state.value == "down" and not node.server.admin_off:
                idle = node.server.params.idle_w
                solar_ok = per_node_solar >= idle
                pool_ok = (
                    self.pool.soc >= RESTART_SOC
                    and per_node_solar + pool_power_share >= idle
                )
                if solar_ok or pool_ok:
                    node.server.power_on()

        # --- demand --------------------------------------------------------
        demands: Dict[str, float] = {}
        for node in nodes:
            util = node.server.utilization(t, rng)
            demands[node.name] = node.server.power(util)
        total_demand = sum(demands.values())

        # --- solar then utility to load -------------------------------------
        solar_to_load = min(solar_w, total_demand)
        utility_used = min(self.utility_budget_w, max(0.0, total_demand - solar_to_load))
        residual = max(0.0, total_demand - solar_to_load - utility_used)

        # --- the shared pool bridges the aggregate deficit -------------------
        cap_total = sum(
            node.discharge_cap_w for node in nodes if node.discharge_cap_w != math.inf
        )
        if any(node.discharge_cap_w == math.inf for node in nodes):
            cap_total = math.inf
        request = min(residual, cap_total)
        battery_to_load = 0.0
        pool_touched = False
        if request > 0.0:
            result = self.pool.discharge(request, dt)
            battery_to_load = result.delivered_power_w
            pool_touched = True

        # --- shed the hungriest loads on shortfall ---------------------------
        unserved = max(0.0, residual - battery_to_load)
        browned_out = 0
        if unserved > max(2.0, 0.02 * residual):
            by_deficit = sorted(
                nodes,
                key=lambda nd: demands[nd.name],
                reverse=True,
            )
            remaining = unserved
            for node in by_deficit:
                if remaining <= 0.0 or demands[node.name] <= 0.0:
                    break
                node.server.brownout()
                node.unserved_wh += (
                    min(remaining, demands[node.name]) * dt / SECONDS_PER_HOUR
                )
                if BUS.enabled:
                    BUS.emit(
                        BrownoutEvent(
                            t=t,
                            node=node.name,
                            shortfall_w=min(remaining, demands[node.name]),
                        )
                    )
                remaining -= demands[node.name]
                browned_out += 1

        # --- surplus charges the pool ----------------------------------------
        surplus = max(0.0, solar_w - solar_to_load)
        solar_to_battery = 0.0
        if surplus > 0.0 and not pool_touched:
            result = self.pool.charge(surplus, dt)
            solar_to_battery = result.delivered_power_w
            surplus -= solar_to_battery
            pool_touched = True

        if not pool_touched:
            self.pool.rest(dt)

        feedback = max(0.0, surplus)
        if feedback > 0.0:
            per_node = feedback / n
            for node in nodes:
                node.feedback_wh += per_node * dt / SECONDS_PER_HOUR

        # --- advance servers and sensors --------------------------------------
        for node in nodes:
            node.server.advance_state(dt)
            node.observe_battery(dt)
        if BUS.enabled:
            # Emit this step's buffered battery frame.
            TELEMETRY.flush_step()

        return PowerFlows(
            demand_w=total_demand,
            solar_available_w=solar_w,
            solar_to_load_w=solar_to_load,
            solar_to_battery_w=solar_to_battery,
            battery_to_load_w=battery_to_load,
            utility_to_load_w=utility_used,
            grid_feedback_w=feedback,
            unserved_w=unserved,
            browned_out_nodes=browned_out,
        )
