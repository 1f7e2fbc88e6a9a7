"""A node: one server paired with one battery unit and its sensors.

The per-server integration (Google style, Fig. 2/7 left) is the paper's
default experimental architecture: "each server is equipped with
individual battery unit". A :class:`Node` bundles the server, its battery,
and the battery's :class:`~repro.metrics.tracker.MetricsTracker` (the
Table-2 sensor log for this battery), plus the policy-writable
discharge cap used by the slowdown scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.battery.unit import BatteryUnit
from repro.datacenter.server import Server, ServerPowerState
from repro.metrics.tracker import MetricsTracker
from repro.obs import BUS
from repro.obs.telemetry import TELEMETRY


@dataclass
class Node:
    """One server + battery + sensor bundle.

    Attributes
    ----------
    discharge_cap_w:
        Policy-set ceiling on battery discharge power for this node
        (``inf`` = uncapped). The slowdown scheme lowers it to stop deep
        high-rate discharge; ``0`` forbids battery use entirely.
    """

    name: str
    server: Server
    battery: BatteryUnit
    tracker: MetricsTracker
    discharge_cap_w: float = math.inf
    #: Cumulative solar energy this node fed back to the grid (Wh) because
    #: its battery could not absorb it — the "unprofitable feedback" loss.
    feedback_wh: float = 0.0
    #: Cumulative energy demand that went unserved (Wh), causing brownouts.
    unserved_wh: float = 0.0

    @classmethod
    def build(
        cls,
        name: str,
        server: Optional[Server] = None,
        battery: Optional[BatteryUnit] = None,
    ) -> "Node":
        """Construct a node with default server/battery models."""
        server = server or Server(name=name)
        server.name = name
        battery = battery or BatteryUnit(name=f"{name}/battery")
        tracker = MetricsTracker(battery.params, name=battery.name)
        return cls(name=name, server=server, battery=battery, tracker=tracker)

    def observe_battery(self, dt: float) -> None:
        """Sample the battery into the metrics tracker (sensor poll).

        Reads the two Table-2 sensor values the tracker uses, ``soc`` and
        ``last_current_a``, straight off the battery.
        """
        battery = self.battery
        soc = battery.soc
        current = battery.last_current_a
        self.tracker.observe(soc, current, dt)
        # Publish the identical sample into the step's battery frame
        # (the fleet kernel feeds the same encoder, so both steppers
        # write identical frames).
        if BUS.enabled:
            TELEMETRY.record_sample(BUS.now, self.name, soc, current, dt)

    @property
    def is_up(self) -> bool:
        """True when the server is serving load."""
        return self.server.state is ServerPowerState.UP
