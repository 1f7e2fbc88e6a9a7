"""Per-step power routing: solar -> loads -> batteries -> grid feedback.

Reproduces the prototype's power switcher (IPDU + PLC + relays + charger +
inverter): at every step the available solar power first feeds server
loads directly, surplus charges batteries (emptiest first, matching the
controller-driven charger), and anything batteries cannot absorb is fed
back to the grid — the paper notes such feedback is sold at an
unprofitable ~40 % of wholesale, so it is pure loss to minimise.

Load deficits are bridged per node by that node's own battery (per-server
architecture), subject to the policy's ``discharge_cap_w``. A node whose
demand cannot be met browns out: its VMs checkpoint and the server goes
down until power returns (Fig. 20's e-Buff downtime).

An optional utility budget (W) models deployments that retain a capped
grid connection; the paper's prototype runs the compute load on
solar + battery during the day, so the default is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.obs import BUS, REGISTRY
from repro.obs.events import BrownoutEvent
from repro.obs.telemetry import TELEMETRY
from repro.units import SECONDS_PER_HOUR

#: SoC a cut-off battery must recover to before its inverter re-enables
#: output (UPS restart hysteresis).
RESTART_SOC = 0.25


@dataclass(frozen=True)
class PowerFlows:
    """Accounting of one routing step (all powers in watts, averaged over
    the step)."""

    demand_w: float
    solar_available_w: float
    solar_to_load_w: float
    solar_to_battery_w: float
    battery_to_load_w: float
    utility_to_load_w: float
    grid_feedback_w: float
    unserved_w: float
    browned_out_nodes: int


class PowerPath:
    """Routes power for a cluster each simulation step."""

    def __init__(self, cluster: Cluster, utility_budget_w: float = 0.0):
        self.cluster = cluster
        self.utility_budget_w = utility_budget_w

    def step(
        self,
        t: float,
        dt: float,
        solar_w: float,
        rng: Optional[np.random.Generator] = None,
    ) -> PowerFlows:
        """Route one step of power and advance all batteries/servers.

        Parameters
        ----------
        t, dt:
            Step start time and duration (seconds).
        solar_w:
            Solar farm output during the step.
        """
        nodes = self.cluster.nodes

        # --- restart any down node that now has a power prospect --------
        # Hysteresis mirrors real UPS behaviour: after a battery cut-off
        # the inverter output stays disabled until the battery recharges
        # to a safe level, unless the primary source alone can carry the
        # server. This is why unplanned cut-offs are so expensive for the
        # aging-blind scheme (section VI-F's e-Buff downtime).
        # Share the solar estimate across the nodes that would actually be
        # drawing if this one restarted: the currently-drawing set plus the
        # candidate itself. Splitting across every node (including admin-off
        # and down ones) made restarts during mostly-off periods wrongly
        # pessimistic.
        drawing = sum(
            1
            for n in nodes
            if not n.server.admin_off and n.server.state.value != "down"
        )
        per_node_solar_guess = solar_w / float(drawing + 1)
        for node in nodes:
            if node.server.state.value == "down" and not node.server.admin_off:
                idle = node.server.params.idle_w
                solar_ok = per_node_solar_guess >= idle
                battery_ok = (
                    node.battery.soc >= RESTART_SOC
                    and min(node.battery.max_discharge_power(), node.discharge_cap_w)
                    + per_node_solar_guess
                    >= idle
                )
                if solar_ok or battery_ok:
                    node.server.power_on()

        # --- demand ------------------------------------------------------
        demands: Dict[str, float] = {}
        for node in nodes:
            util = node.server.utilization(t, rng)
            demands[node.name] = node.server.power(util)
        total_demand = sum(demands.values())

        # --- solar to load, proportional to demand -----------------------
        solar_to_load = min(solar_w, total_demand)
        solar_share: Dict[str, float] = {}
        for node in nodes:
            share = (
                solar_to_load * demands[node.name] / total_demand
                if total_demand > 0
                else 0.0
            )
            solar_share[node.name] = share

        # --- utility to load (optional capped budget) ---------------------
        utility_left = self.utility_budget_w
        utility_used = 0.0

        # --- battery bridges the per-node deficit -------------------------
        battery_to_load = 0.0
        unserved = 0.0
        browned_out = 0
        touched: set = set()
        for node in nodes:
            deficit = demands[node.name] - solar_share[node.name]
            if deficit <= 1e-9:
                continue
            from_utility = min(deficit, utility_left)
            utility_left -= from_utility
            utility_used += from_utility
            deficit -= from_utility
            if deficit <= 1e-9:
                continue
            allowed = min(deficit, node.discharge_cap_w)
            delivered = 0.0
            if allowed > 0.0:
                result = node.battery.discharge(allowed, dt)
                touched.add(node.name)
                delivered = result.delivered_power_w
                battery_to_load += delivered
            # Tolerate solver rounding and small sags: a server browns out
            # only on a materially unmet deficit (>2 % or >2 W).
            shortfall = deficit - delivered
            if shortfall > max(2.0, 0.02 * deficit):
                unserved += shortfall
                node.unserved_wh += shortfall * dt / SECONDS_PER_HOUR
                node.server.brownout()
                browned_out += 1
                if BUS.enabled:
                    BUS.emit(
                        BrownoutEvent(t=t, node=node.name, shortfall_w=shortfall)
                    )
                if REGISTRY.enabled:
                    REGISTRY.counter("power/brownouts").inc()

        # --- surplus solar charges batteries, emptiest first --------------
        surplus = max(0.0, solar_w - solar_to_load)
        solar_to_battery = 0.0
        if surplus > 0.0:
            # Nodes whose battery discharged this step cannot also charge.
            candidates = sorted(
                (n for n in nodes if n.battery.soc < 1.0 and n.name not in touched),
                key=lambda n: n.battery.soc,
            )
            for node in candidates:
                if surplus <= 1e-9:
                    break
                result = node.battery.charge(surplus, dt)
                touched.add(node.name)
                solar_to_battery += result.delivered_power_w
                surplus -= result.delivered_power_w

        # --- rest every battery that neither charged nor discharged -------
        for node in nodes:
            if node.name not in touched:
                node.battery.rest(dt)

        feedback = max(0.0, surplus)
        if feedback > 0.0:
            per_node = feedback / len(nodes)
            for node in nodes:
                node.feedback_wh += per_node * dt / SECONDS_PER_HOUR

        # --- advance servers and sensors ----------------------------------
        for node in nodes:
            node.server.advance_state(dt)
            node.observe_battery(dt)
        if BUS.enabled:
            # Telemetry buffers the per-node samples above; emit the
            # step's frame now that the whole fleet has been observed.
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
