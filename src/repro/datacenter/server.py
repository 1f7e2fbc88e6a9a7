"""Server power model with DVFS.

Each compute node (the prototype mixes IBM x330 and HP ProLiant boxes) is
modelled with the standard linear-in-utilisation power envelope plus a
DVFS frequency ladder:

    P(util, f) = P_idle(f) + (P_peak - P_idle) * util * (f / f_max) ** alpha

with ``alpha ~ 2.2`` capturing the superlinear dynamic-power saving of
voltage/frequency scaling, and idle power shrinking mildly with frequency.
Compute speed scales linearly with frequency, so DVFS trades throughput
for power — exactly the penalty BAAT-s pays (section VI-F).

A server can be **up**, **down** (browned out / checkpointed), or
**booting** (restarting after power returns; draws power, does no work).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datacenter.vm import MIGRATION_POWER_W, VM
from repro.errors import ConfigurationError

#: Exponent of the frequency term in dynamic power.
DVFS_POWER_EXPONENT = 2.2

#: Fraction of idle power that scales with frequency (the rest is static).
IDLE_DYNAMIC_FRACTION = 0.3

#: Boot/restore time after a brownout, seconds.
BOOT_SECONDS = 300.0


class ServerPowerState(enum.Enum):
    """Operational state of a server."""

    UP = "up"
    DOWN = "down"
    BOOTING = "booting"


@dataclass(frozen=True)
class ServerParams:
    """Power/performance envelope for one server.

    Defaults approximate the prototype's mid-2000s 1U boxes: ~60 W idle,
    ~150 W peak, four DVFS steps from 100 % down to 40 % of nominal
    frequency. The wide idle-to-peak band is what makes per-node power
    demand — and therefore battery usage — vary significantly across nodes
    (the paper's Fig. 12a observation).
    """

    idle_w: float = 60.0
    peak_w: float = 150.0
    freq_levels: Tuple[float, ...] = (1.0, 0.8, 0.6, 0.4)

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.peak_w <= self.idle_w:
            raise ConfigurationError("need 0 <= idle_w < peak_w")
        if not self.freq_levels:
            raise ConfigurationError("freq_levels must be non-empty")
        levels = tuple(self.freq_levels)
        if any(not 0.0 < f <= 1.0 for f in levels):
            raise ConfigurationError("frequency levels must be in (0, 1]")
        if list(levels) != sorted(levels, reverse=True):
            raise ConfigurationError("freq_levels must be sorted descending")

    def scaled(self, factor: float) -> "ServerParams":
        """A copy with the power envelope scaled by ``factor`` (used by the
        Fig. 15 server-to-battery-ratio sweep)."""
        return ServerParams(
            idle_w=self.idle_w * factor,
            peak_w=self.peak_w * factor,
            freq_levels=self.freq_levels,
        )


class Server:
    """One compute server hosting VMs, with a DVFS control knob."""

    def __init__(self, params: Optional[ServerParams] = None, name: str = "server"):
        self.params = params or ServerParams()
        self.name = name
        self.vms: List[VM] = []
        self.state = ServerPowerState.UP
        #: Administrative shutdown (outside the prototype's 8:30-18:30
        #: operating window); draws no power and is not availability loss.
        self.admin_off = False
        #: Policy-commanded sleep (BAAT consolidation parks a vacated
        #: server so its battery can recharge); also planned, not downtime.
        self.policy_off = False
        self._freq_index = 0
        self._boot_remaining_s = 0.0
        self.downtime_s = 0.0
        self.dvfs_transitions = 0

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------
    @property
    def frequency(self) -> float:
        """Current frequency as a fraction of nominal."""
        return self.params.freq_levels[self._freq_index]

    @property
    def freq_index(self) -> int:
        """Index into the frequency ladder (0 = fastest)."""
        return self._freq_index

    def set_freq_index(self, index: int) -> None:
        """Jump to a specific ladder step."""
        if not 0 <= index < len(self.params.freq_levels):
            raise ConfigurationError(
                f"freq index {index} out of range for {len(self.params.freq_levels)} levels"
            )
        if index != self._freq_index:
            self.dvfs_transitions += 1
        self._freq_index = index

    def throttle_down(self) -> bool:
        """Step one level down the ladder; False if already at the floor."""
        if self._freq_index + 1 >= len(self.params.freq_levels):
            return False
        self.set_freq_index(self._freq_index + 1)
        return True

    def throttle_up(self) -> bool:
        """Step one level up the ladder; False if already at full speed."""
        if self._freq_index == 0:
            return False
        self.set_freq_index(self._freq_index - 1)
        return True

    # ------------------------------------------------------------------
    # VM hosting
    # ------------------------------------------------------------------
    def attach(self, vm: VM) -> None:
        """Host a VM (placement or migration arrival)."""
        if vm not in self.vms:
            self.vms.append(vm)
        vm.host = self.name

    def detach(self, vm: VM) -> None:
        """Stop hosting a VM (migration departure)."""
        if vm in self.vms:
            self.vms.remove(vm)

    def utilization(self, t: float, rng: Optional[np.random.Generator] = None) -> float:
        """Aggregate CPU utilisation demanded by hosted VMs, capped at 1."""
        if self.admin_off or self.policy_off or self.state is not ServerPowerState.UP:
            return 0.0
        total = sum(vm.utilization(t, rng) for vm in self.vms)
        return max(0.0, min(1.0, total))

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power(self, utilization: float) -> float:
        """Instantaneous power draw (W) at a given utilisation."""
        if self.admin_off or self.policy_off or self.state is ServerPowerState.DOWN:
            return 0.0
        p = self.params
        f = self.frequency
        idle = p.idle_w * (1.0 - IDLE_DYNAMIC_FRACTION * (1.0 - f))
        if self.state is ServerPowerState.BOOTING:
            return idle
        util = max(0.0, min(1.0, utilization))
        dynamic = (p.peak_w - p.idle_w) * util * f**DVFS_POWER_EXPONENT
        migrating = sum(1 for vm in self.vms if vm.is_stalled)
        return idle + dynamic + migrating * MIGRATION_POWER_W

    def speed_factor(self) -> float:
        """Compute-speed multiplier delivered to hosted VMs."""
        if self.admin_off or self.policy_off or self.state is not ServerPowerState.UP:
            return 0.0
        return self.frequency

    # ------------------------------------------------------------------
    # Availability transitions
    # ------------------------------------------------------------------
    def brownout(self) -> None:
        """Power loss: checkpoint all VMs and go down."""
        if self.state is ServerPowerState.DOWN:
            return
        for vm in self.vms:
            vm.checkpoint()
        self.state = ServerPowerState.DOWN

    def power_on(self) -> None:
        """Begin booting after power returns."""
        if self.state is ServerPowerState.DOWN:
            self.state = ServerPowerState.BOOTING
            self._boot_remaining_s = BOOT_SECONDS

    def advance_state(self, dt: float) -> None:
        """Progress boot timers and downtime accounting by ``dt`` seconds.

        Administrative shutdown is planned, so it never counts as downtime.
        """
        if self.admin_off or self.policy_off:
            return
        if self.state is ServerPowerState.DOWN:
            self.downtime_s += dt
        elif self.state is ServerPowerState.BOOTING:
            self.downtime_s += min(dt, self._boot_remaining_s)
            self._boot_remaining_s -= dt
            if self._boot_remaining_s <= 0.0:
                self._boot_remaining_s = 0.0
                self.state = ServerPowerState.UP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server({self.name!r}, state={self.state.value}, "
            f"f={self.frequency:.1f}, vms={len(self.vms)})"
        )
