"""Rack-shared battery pool (Facebook Open-Rack style integration).

BAAT "supports two types of distributed energy storage architectures":
per-server batteries (Google style) and a pool of batteries shared by
several racks (Facebook Open Rack style). :class:`BatteryPool` provides
the second: a group of :class:`~repro.battery.unit.BatteryUnit` objects
behind a single charge/discharge interface that spreads current across
members: discharge splits power across live members in proportion to
their present deliverable power (the electrical reality of paralleled
strings: stronger/fuller blocks naturally source more current).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.battery.unit import BatteryUnit, StepResult
from repro.errors import ConfigurationError


class BatteryPool:
    """Several battery units behind one power interface."""

    def __init__(self, units: Sequence[BatteryUnit]):
        if not units:
            raise ConfigurationError("a battery pool needs at least one unit")
        self.units: List[BatteryUnit] = list(units)

    # ------------------------------------------------------------------
    # Aggregate state
    # ------------------------------------------------------------------
    @property
    def soc(self) -> float:
        """Charge-weighted aggregate state of charge."""
        cap = sum(u.effective_capacity_ah for u in self.units)
        if cap <= 0:
            return 0.0
        return sum(u.stored_ah for u in self.units) / cap

    @property
    def effective_capacity_ah(self) -> float:
        """Total usable capacity across members."""
        return sum(u.effective_capacity_ah for u in self.units)

    def max_discharge_power(self) -> float:
        """Aggregate sustainable discharge power."""
        return sum(u.max_discharge_power() for u in self.units)

    # ------------------------------------------------------------------
    # Power interface
    # ------------------------------------------------------------------
    def discharge(self, power_w: float, dt: float) -> StepResult:
        """Source up to ``power_w`` for ``dt`` seconds across members."""
        if power_w < 0:
            raise ConfigurationError("discharge power must be >= 0")
        shares = self._shares(power_w)
        delivered = 0.0
        current = 0.0
        curtailed = False
        voltage = 0.0
        for unit, share in zip(self.units, shares):
            if share <= 0.0:
                unit.rest(dt)
                continue
            res = unit.discharge(share, dt)
            delivered += res.delivered_power_w
            current += max(res.current_a, 0.0)
            curtailed = curtailed or res.curtailed
            voltage = max(voltage, res.terminal_voltage_v)
        # Relative tolerance: the per-unit fixed-point voltage solve leaves
        # sub-milliwatt residuals that are not real curtailment.
        if delivered < power_w * (1.0 - 1e-4):
            curtailed = True
        return StepResult(delivered, current, voltage, curtailed)

    def charge(self, power_w: float, dt: float) -> StepResult:
        """Absorb up to ``power_w`` for ``dt`` seconds across members.

        Charging preferentially fills the emptiest members first (series
        chargers per string), which also counteracts stratification on the
        most-partial blocks.
        """
        if power_w < 0:
            raise ConfigurationError("charge power must be >= 0")
        remaining = power_w
        absorbed = 0.0
        current = 0.0
        gassing = 0.0
        for unit in sorted(self.units, key=lambda u: u.soc):
            if remaining <= 1e-12:
                unit.rest(dt)
                continue
            res = unit.charge(remaining, dt)
            absorbed += res.delivered_power_w
            remaining = max(0.0, remaining - res.delivered_power_w)
            current += res.current_a
            gassing += res.gassing_current_a
        curtailed = absorbed < power_w - 1e-9
        return StepResult(absorbed, current, 0.0, curtailed, gassing)

    def rest(self, dt: float) -> None:
        """Idle all members for ``dt`` seconds."""
        for unit in self.units:
            unit.rest(dt)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _shares(self, power_w: float) -> List[float]:
        """Each member's share of ``power_w``, proportional to its
        present deliverable power."""
        caps = [u.max_discharge_power() for u in self.units]
        total = sum(caps)
        if total <= 0.0:
            return [0.0] * len(self.units)
        return [power_w * c / total for c in caps]

    def __iter__(self) -> Iterable[BatteryUnit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)
