"""Stateful battery unit: the object the rest of the system talks to.

:class:`BatteryUnit` composes the sub-models — coulomb-counting SoC with
the Peukert drain correction, the terminal-voltage model, the lumped
thermal model, the CC-CV charger, and the five-mechanism aging model —
behind a power-oriented API:

- :meth:`discharge` — "deliver up to P watts for dt seconds", returning
  what was actually delivered (the battery may curtail on cut-off SoC,
  cut-off voltage, or sheer emptiness);
- :meth:`charge` — "absorb up to P watts for dt seconds", limited by the
  charger's acceptance current and taper;
- :meth:`rest` — idle for dt seconds (calendar aging still accrues).

Sign convention: *positive current = discharge*, matching the paper's
equations (Eq. 1 integrates the discharge current).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.battery.aging import AgingModel, OperatingConditions, default_mechanisms
from repro.battery.charger import Charger, ChargerParams
from repro.battery.params import BatteryParams
from repro.battery.peukert import peukert_factor
from repro.battery.thermal import ThermalModel
from repro.battery.voltage import VoltageModel
from repro.errors import BatteryCutoffError, ConfigurationError
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class StepResult:
    """Outcome of one charge/discharge/rest step.

    Attributes
    ----------
    delivered_power_w:
        Power actually sourced (discharge) or absorbed (charge), >= 0.
    current_a:
        Signed terminal current (positive = discharge).
    terminal_voltage_v:
        Voltage under that current.
    curtailed:
        True when the battery could not meet the full request (empty, at
        cut-off, or acceptance-limited).
    gassing_current_a:
        Charge current lost to gassing this step (charge only).
    """

    delivered_power_w: float
    current_a: float
    terminal_voltage_v: float
    curtailed: bool
    gassing_current_a: float = 0.0


class BatteryUnit:
    """One lead-acid block with full electrical, thermal, and aging state."""

    def __init__(
        self,
        params: Optional[BatteryParams] = None,
        name: str = "battery",
        initial_soc: float = 1.0,
        ambient_c: float = 25.0,
        capacity_factor: float = 1.0,
        charger_params: Optional[ChargerParams] = None,
        aging_model: Optional[AgingModel] = None,
    ):
        """
        Parameters
        ----------
        capacity_factor:
            Manufacturing variation: this unit's true initial capacity as a
            multiple of nominal (e.g. 0.98 for a slightly weak block). The
            paper names manufacturing deviation as one of the two sources
            of aging variation.
        """
        self.params = params or BatteryParams()
        if not 0.0 <= initial_soc <= 1.0:
            raise ConfigurationError("initial_soc must be in [0, 1]")
        if capacity_factor <= 0.0:
            raise ConfigurationError("capacity_factor must be positive")
        self.name = name
        self.capacity_factor = capacity_factor
        self.voltage_model = VoltageModel(self.params)
        self.thermal = ThermalModel(self.params, ambient_c=ambient_c)
        self.charger = Charger(self.params, charger_params)
        p = self.params
        self.aging = aging_model or AgingModel(
            default_mechanisms(
                p.lifetime_full_cycles,
                p.sulphation_rate_scale,
                p.active_mass_stress_weights,
            ),
            feedback_gain=p.aging_feedback_gain,
        )
        self._soc = initial_soc
        self._time_s = 0.0
        self._last_current = 0.0
        self._hours_since_full = 0.0 if initial_soc >= 0.99 else 48.0
        # Terminal energy accounting for round-trip efficiency (Fig. 5).
        self.energy_in_wh = 0.0
        self.energy_out_wh = 0.0

    # ------------------------------------------------------------------
    # Read-only state
    # ------------------------------------------------------------------
    @property
    def soc(self) -> float:
        """State of charge in [0, 1]."""
        return self._soc

    @property
    def time_s(self) -> float:
        """Total elapsed operating time in seconds."""
        return self._time_s

    @property
    def capacity_fade(self) -> float:
        """Fraction of capacity lost to aging."""
        return self.aging.capacity_fade

    @property
    def effective_capacity_ah(self) -> float:
        """Presently usable capacity in Ah (manufacturing x aging)."""
        return self._capacity_ah(self.capacity_fade)

    @property
    def stored_ah(self) -> float:
        """Charge currently stored, in Ah."""
        return self._soc * self.effective_capacity_ah

    @property
    def is_end_of_life(self) -> bool:
        """True once aging has crossed the 80 %-capacity floor."""
        return self.aging.is_end_of_life

    @property
    def hours_since_full_charge(self) -> float:
        """Hours elapsed since the battery last reached full charge."""
        return self._hours_since_full

    @property
    def last_current_a(self) -> float:
        """Signed terminal current of the most recent step (A, positive =
        discharge), 0.0 before any step. The engine and recorder read
        this rather than reaching into private coulomb-counter state."""
        return self._last_current

    def terminal_voltage(self, current: float = 0.0) -> float:
        """Terminal voltage at a hypothetical signed current (A)."""
        _, fade, growth = self.aging.derived()
        return self.voltage_model.terminal_voltage(self._soc, current, fade, growth)

    # ------------------------------------------------------------------
    # Power API
    # ------------------------------------------------------------------
    def max_discharge_power(self) -> float:
        """Largest power (W) sustainably sourceable right now.

        The binding constraints are the cut-off SoC, the cut-off terminal
        voltage, and — indirectly — aging (which lowers both OCV and the
        current ceiling). Used by policies to check the paper's "2 minutes
        of reserve" availability rule.
        """
        if self._soc <= self.params.cutoff_soc:
            return 0.0
        _, fade, growth = self.aging.derived()
        i_max = self.voltage_model.max_discharge_current(self._soc, fade, growth)
        if i_max <= 0.0:
            return 0.0
        v = self.voltage_model.terminal_voltage(self._soc, i_max, fade, growth)
        return max(0.0, i_max * v)

    def discharge(self, power_w: float, dt: float, strict: bool = False) -> StepResult:
        """Source up to ``power_w`` for ``dt`` seconds.

        Solves the implicit ``P = V(I) * I`` relation with two fixed-point
        refinements (ample for the < 10 % sag regime), then applies the
        SoC, voltage, and charge-availability limits. With ``strict=True``
        an unmeetable request raises :class:`BatteryCutoffError` instead of
        curtailing.
        """
        if power_w < 0:
            raise ConfigurationError("discharge power must be >= 0")
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if power_w == 0.0:
            return self.rest(dt)

        _, fade, growth = self.aging.derived()
        curtailed = False

        if self._soc <= self.params.cutoff_soc:
            if strict:
                raise BatteryCutoffError(
                    f"{self.name}: at cut-off SoC {self._soc:.2f}, cannot discharge"
                )
            self._advance_rest(dt)
            return StepResult(0.0, 0.0, self.terminal_voltage(0.0), True)

        # Fixed-point solve for current at the requested power.
        v = self.voltage_model.terminal_voltage(self._soc, 0.0, fade, growth)
        current = power_w / max(v, 1e-6)
        for _ in range(2):
            v = self.voltage_model.terminal_voltage(self._soc, current, fade, growth)
            if v <= 0:
                break
            current = power_w / v

        # Voltage cut-off limit.
        i_max = self.voltage_model.max_discharge_current(self._soc, fade, growth)
        if current > i_max:
            if strict:
                raise BatteryCutoffError(
                    f"{self.name}: request {power_w:.0f} W exceeds the "
                    f"cut-off-voltage current limit {i_max:.1f} A"
                )
            current = i_max
            curtailed = True
        if current <= 0.0:
            self._advance_rest(dt)
            return StepResult(0.0, 0.0, self.terminal_voltage(0.0), True)

        # Charge-availability limit: cannot drain below the cut-off SoC.
        cap = self._capacity_ah(fade)
        pf = peukert_factor(current, self.params)
        drain_ah = current * pf * dt / SECONDS_PER_HOUR
        avail_ah = max(0.0, (self._soc - self.params.cutoff_soc) * cap)
        if drain_ah > avail_ah:
            scale = avail_ah / drain_ah if drain_ah > 0 else 0.0
            current *= scale
            drain_ah = avail_ah
            curtailed = True
            pf = peukert_factor(current, self.params)
            drain_ah = current * pf * dt / SECONDS_PER_HOUR

        v = self.voltage_model.terminal_voltage(self._soc, current, fade, growth)
        delivered_w = current * max(v, 0.0)

        cond = self._conditions(current=current)
        self._apply_step(cond, dt, growth)
        self._soc = max(0.0, min(1.0, self._soc - drain_ah / max(cap, 1e-9)))
        self.energy_out_wh += delivered_w * dt / SECONDS_PER_HOUR
        self._last_current = current
        return StepResult(delivered_w, current, v, curtailed)

    def charge(self, power_w: float, dt: float) -> StepResult:
        """Absorb up to ``power_w`` for ``dt`` seconds.

        Acceptance is limited by the CC-CV charger (bulk limit and taper);
        part of the accepted current is lost to gassing per the coulombic
        efficiency (worse with age), which feeds the water-loss mechanism.
        Returns the power drawn *from the source* (terminal power).
        """
        if power_w < 0:
            raise ConfigurationError("charge power must be >= 0")
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if power_w == 0.0 or self._soc >= 1.0:
            result = self.rest(dt)
            # A full battery offered power is float-charging, not resting:
            if power_w > 0.0 and self._soc >= 1.0:
                self._register_float(dt)
            return result

        _, fade, growth = self.aging.derived()
        v = self.voltage_model.terminal_voltage(self._soc, -1.0, fade, growth)
        i_request = power_w / max(v, 1e-6)
        i_accept = self.charger.acceptance_current(self._soc, fade)
        current = min(i_request, i_accept)
        curtailed = current < i_request - 1e-12

        eta = self.charger.coulombic_efficiency(self._soc) * (
            self.aging.coulombic_efficiency_factor
        )
        stored_current = current * eta
        gassing_current = current - stored_current

        cap = self._capacity_ah(fade)
        stored_ah = stored_current * dt / SECONDS_PER_HOUR
        room_ah = max(0.0, (1.0 - self._soc) * cap)
        if stored_ah > room_ah:
            scale = room_ah / stored_ah if stored_ah > 0 else 0.0
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah = room_ah
            curtailed = True

        v = self.voltage_model.terminal_voltage(self._soc, -current, fade, growth)
        absorbed_w = current * v
        if absorbed_w > power_w > 0.0:
            # The fixed-point voltage estimate can overshoot slightly;
            # never draw more from the source than was offered.
            scale = power_w / absorbed_w
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah *= scale
            absorbed_w = power_w

        is_float = self._soc >= 0.99 and current <= self.charger.float_current * 2.0
        cond = self._conditions(
            current=-current, gassing_current=gassing_current, is_float=is_float
        )
        self._apply_step(cond, dt, growth)
        reached_full = self._soc < 0.99
        self._soc = max(0.0, min(1.0, self._soc + stored_ah / max(cap, 1e-9)))
        if self._soc >= 0.99:
            if reached_full:
                # Completing a full charge stirs the electrolyte and
                # undoes part of any accumulated stratification.
                self.aging.recover_stratification()
            self._hours_since_full = 0.0
        self.energy_in_wh += absorbed_w * dt / SECONDS_PER_HOUR
        self._last_current = -current
        return StepResult(absorbed_w, -current, v, curtailed, gassing_current)

    def rest(self, dt: float) -> StepResult:
        """Idle for ``dt`` seconds; calendar aging still accrues."""
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        self._advance_rest(dt)
        self._last_current = 0.0
        return StepResult(0.0, 0.0, self.terminal_voltage(0.0), False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _conditions(
        self,
        current: float,
        gassing_current: float = 0.0,
        is_float: bool = False,
    ) -> OperatingConditions:
        return OperatingConditions(
            soc=self._soc,
            current=current,
            temperature_c=self.thermal.temperature_c,
            reference_current=self.params.reference_current,
            capacity_ah=self.params.capacity_ah * self.capacity_factor,
            is_float_charging=is_float,
            gassing_current=gassing_current,
            hours_since_full_charge=self._hours_since_full,
        )

    def _capacity_ah(self, fade: float) -> float:
        """Usable capacity (Ah) at the given capacity fade."""
        return self.params.capacity_ah * self.capacity_factor * (1.0 - fade)

    def _apply_step(
        self, cond: OperatingConditions, dt: float, resistance_growth: float
    ) -> None:
        """Advance heat, aging and clocks by one step. ``resistance_growth``
        is the caller's reading from before the step (the damage has not
        moved since)."""
        resistance = self.voltage_model.resistance(resistance_growth)
        self.thermal.step(abs(cond.current), resistance, dt)
        self.aging.step(cond, dt)
        self._time_s += dt
        if self._soc < 0.99:
            self._hours_since_full += dt / SECONDS_PER_HOUR

    def _advance_rest(self, dt: float) -> None:
        self._apply_step(
            self._conditions(current=0.0), dt, self.aging.resistance_growth
        )
        # Self-discharge: stored charge leaks at rest (the reason float
        # charging exists). Exponential decay of the stored fraction.
        rate = self.params.self_discharge_per_day
        if rate > 0.0 and self._soc > 0.0:
            self._soc *= math.exp(-rate * dt / 86400.0)

    def _register_float(self, dt: float) -> None:
        """Account float-stage aging for a full battery held on charge."""
        cond = self._conditions(
            current=-self.charger.float_current,
            gassing_current=self.charger.float_current,
            is_float=True,
        )
        # Float adds aging but no stored charge or meaningful energy flow;
        # time was already advanced by the preceding rest() call, so only
        # the aging integrals move here.
        self.aging.step(cond, dt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatteryUnit({self.name!r}, soc={self._soc:.2f}, "
            f"fade={self.capacity_fade:.3f}, t={self._time_s:.0f}s)"
        )
