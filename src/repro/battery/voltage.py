"""Terminal-voltage model for lead-acid blocks.

A rested lead-acid cell's open-circuit voltage (OCV) is, to a good
approximation, linear in state of charge because OCV tracks electrolyte
(sulphuric acid) concentration, which coulomb counting depletes linearly.
Under load the terminal voltage additionally sags by ``I * R`` across the
internal resistance, with a mild extra sag at very low SoC where acid
depletion at the plate surface bites (modelled with a low-SoC knee).

Aging enters in two ways, reproducing the paper's Fig. 3 measurement
(fully-charged terminal voltage down ~9 % over six months of cyclic use):

- internal resistance grows with accumulated corrosion/sulphation damage,
  deepening the loaded sag; and
- the full-charge OCV itself falls as active mass is lost (the electrode
  can no longer hold the full acid gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.battery.params import BatteryParams

#: Coefficient and exponent coupling full-charge OCV loss to capacity fade:
#: ``drop = OCV_FADE_COEFF * fade ** OCV_FADE_EXPONENT``. Superlinear in
#: fade so the droop *rate* accelerates as the battery ages — the paper's
#: Fig. 3 measures 0.1 V/month early growing to 0.3 V/month late, with a
#: total ~9 % drop co-occurring with ~14 % capacity fade.
OCV_FADE_COEFF = 1.30
OCV_FADE_EXPONENT = 1.35

#: SoC below which the extra concentration-polarisation sag ramps in.
LOW_SOC_KNEE = 0.20

#: Maximum additional sag (volts) contributed by the low-SoC knee at SoC=0
#: for a 12 V block under reference current.
LOW_SOC_SAG_V = 0.45


@dataclass(frozen=True)
class VoltageModel:
    """Computes OCV and loaded terminal voltage for one battery.

    Stateless: all state (SoC, fade, resistance growth) is passed in, so
    the same model object can serve any number of units.
    """

    params: BatteryParams

    def ocv(self, soc: float, capacity_fade: float = 0.0) -> float:
        """Open-circuit (rested) voltage at a given SoC and age.

        Parameters
        ----------
        soc:
            State of charge in ``[0, 1]``.
        capacity_fade:
            Fraction of nominal capacity lost to aging, in ``[0, 1)``.
        """
        # Inline clamps: the bounds are constants, and this runs several
        # times per battery step.
        soc = max(0.0, min(1.0, soc))
        p = self.params
        fade = max(0.0, min(1.0, capacity_fade))
        full = p.ocv_full * (1.0 - OCV_FADE_COEFF * fade**OCV_FADE_EXPONENT)
        empty = p.ocv_empty
        if full < empty:  # pathological age; keep the window non-inverted
            full = empty
        return empty + (full - empty) * soc

    def resistance(self, resistance_growth: float = 0.0) -> float:
        """Internal resistance (ohms) after aging.

        ``resistance_growth`` is the fractional increase accumulated by the
        aging model (0.0 for a new battery; 1.0 doubles resistance).
        """
        return self.params.internal_resistance_ohm * (1.0 + max(0.0, resistance_growth))

    def terminal_voltage(
        self,
        soc: float,
        current: float,
        capacity_fade: float = 0.0,
        resistance_growth: float = 0.0,
    ) -> float:
        """Loaded terminal voltage.

        Parameters
        ----------
        current:
            Signed current in amperes — positive for discharge, negative
            for charge (so charging *raises* the terminal voltage).
        """
        v = self.ocv(soc, capacity_fade)
        r = self.resistance(resistance_growth)
        v -= current * r
        if current > 0.0 and soc < LOW_SOC_KNEE:
            # The knee scales linearly with both depth below the knee and
            # (capped) discharge rate relative to the reference current.
            depth = (LOW_SOC_KNEE - max(0.0, min(1.0, soc))) / LOW_SOC_KNEE
            rate = min(current / self.params.reference_current, 4.0) / 4.0
            v -= LOW_SOC_SAG_V * depth * rate
        return v

    def max_discharge_current(
        self,
        soc: float,
        capacity_fade: float = 0.0,
        resistance_growth: float = 0.0,
    ) -> float:
        """Largest discharge current that keeps terminal voltage above the
        cut-off, ignoring the low-SoC knee (a conservative planner bound).

        Returns 0 when even the OCV is already at/below cut-off — an aged or
        deeply discharged battery that cannot sustain any high-current draw
        (the paper's "under-voltage battery ... disconnected from the
        system").
        """
        v = self.ocv(soc, capacity_fade)
        headroom = v - self.params.cutoff_voltage
        if headroom <= 0.0:
            return 0.0
        return headroom / self.resistance(resistance_growth)
