"""Datasheet-style battery parameters.

Defaults describe the paper's hardware: new sealed (VRLA) lead-acid blocks,
12 V nominal, 35 Ah capacity at the 20-hour rate, six 2 V cells in series.
Everything the rest of the simulator needs — voltage window, internal
resistance, Peukert exponent, thermal constants, lifetime throughput — is
collected here so a single object fully specifies a battery model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Strength of the aging positive feedback (rate multiplier per unit fade).
FEEDBACK_GAIN = 1.5


@dataclass(frozen=True)
class BatteryParams:
    """Immutable parameter set for one lead-acid battery block.

    Attributes
    ----------
    nominal_voltage:
        Nameplate voltage (V). 12 V for the paper's blocks.
    capacity_ah:
        Nominal capacity (Ah) at the reference (20-hour) discharge rate.
    cells:
        Number of 2 V cells in series; used for per-cell voltage thresholds.
    ocv_full / ocv_empty:
        Open-circuit (rested) voltage at 100 % / 0 % SoC for a *new*
        battery. The linear OCV-SoC interpolation between these is a
        standard lead-acid approximation.
    internal_resistance_ohm:
        Fresh internal resistance. Grows with age (see
        :class:`~repro.battery.aging.model.AgingModel`).
    cutoff_voltage:
        Terminal voltage below which the battery is disconnected to protect
        it (the paper's "cut-out line"; 1.75 V/cell -> 10.5 V).
    cutoff_soc:
        SoC floor enforced by the battery management layer. Discharging is
        refused below it regardless of voltage.
    peukert_exponent:
        Rate-capacity (Peukert) exponent; 1.10-1.25 is typical for VRLA.
    reference_hours:
        Discharge duration defining the nominal rate (20 h convention).
    coulombic_efficiency:
        Charge-acceptance efficiency away from full charge.
    gassing_soc:
        SoC above which charging increasingly goes into gassing (water
        electrolysis) rather than stored charge.
    thermal_capacity_j_per_k / thermal_resistance_k_per_w:
        Lumped thermal model constants (battery mass ~11 kg).
    lifetime_full_cycles:
        Number of *unweighted* full (100 % DoD) cycles the block can deliver
        before reaching end of life under benign conditions; anchors the
        constant-total-Ah-throughput lifetime model (paper refs [31, 32]).
    eol_capacity_fraction:
        End-of-life threshold as a fraction of nominal capacity (80 %,
        paper section II-B).
    price_usd:
        Purchase price used by :mod:`repro.cost`. ~2 USD/Ah retail for a
        12 V VRLA block circa 2015.
    manufacturing_capacity_sigma:
        Relative standard deviation of initial capacity across units, the
        manufacturing variation behind the paper's "aging variation".
    aging_feedback_gain / sulphation_rate_scale / active_mass_stress_weights:
        Aging calibration the paper does not pin down (the ``sensitivity``
        experiment varies it): every mechanism's rate is multiplied by
        ``1 + aging_feedback_gain * fade``, sulphation's base rate by
        ``sulphation_rate_scale``, and with ``active_mass_stress_weights``
        off every discharged Ah wears the active mass equally (no SoC,
        rate or temperature weight).
    """

    nominal_voltage: float = 12.0
    capacity_ah: float = 35.0
    cells: int = 6
    ocv_full: float = 12.90
    ocv_empty: float = 11.80
    internal_resistance_ohm: float = 0.015
    cutoff_voltage: float = 10.5
    cutoff_soc: float = 0.12
    peukert_exponent: float = 1.15
    reference_hours: float = 20.0
    coulombic_efficiency: float = 0.95
    gassing_soc: float = 0.90
    thermal_capacity_j_per_k: float = 20_000.0
    thermal_resistance_k_per_w: float = 0.8
    lifetime_full_cycles: float = 380.0
    eol_capacity_fraction: float = 0.80
    price_usd: float = 70.0
    manufacturing_capacity_sigma: float = 0.02
    #: Self-discharge at rest, as a fraction of stored charge per day.
    #: ~3 %/month is typical for VRLA at room temperature; it is why a
    #: float stage exists at all.
    self_discharge_per_day: float = 0.001
    aging_feedback_gain: float = FEEDBACK_GAIN
    sulphation_rate_scale: float = 1.0
    active_mass_stress_weights: bool = True

    def __post_init__(self) -> None:
        if self.capacity_ah <= 0:
            raise ConfigurationError("capacity_ah must be positive")
        if self.cells <= 0:
            raise ConfigurationError("cells must be positive")
        if not self.ocv_empty < self.ocv_full:
            raise ConfigurationError("ocv_empty must be below ocv_full")
        if self.internal_resistance_ohm < 0:
            raise ConfigurationError("internal_resistance_ohm must be >= 0")
        if not 0.0 <= self.cutoff_soc < 1.0:
            raise ConfigurationError("cutoff_soc must be in [0, 1)")
        if self.peukert_exponent < 1.0:
            raise ConfigurationError("peukert_exponent must be >= 1")
        if not 0.0 < self.coulombic_efficiency <= 1.0:
            raise ConfigurationError("coulombic_efficiency must be in (0, 1]")
        if not 0.0 < self.eol_capacity_fraction < 1.0:
            raise ConfigurationError("eol_capacity_fraction must be in (0, 1)")
        if not 0.0 < self.gassing_soc <= 1.0:
            raise ConfigurationError("gassing_soc must be in (0, 1]")
        for name in ("aging_feedback_gain", "sulphation_rate_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(f"{name} must be finite and >= 0")

    @property
    def reference_current(self) -> float:
        """Nominal (20-hour-rate) discharge current in amperes."""
        return self.capacity_ah / self.reference_hours

    @property
    def lifetime_ah_throughput(self) -> float:
        """Total *weighted* dischargeable charge over the battery's life (Ah).

        The constant-charge-throughput lifetime model: the aggregate electric
        charge cyclable from a lead-acid battery before wear-out is roughly
        constant (paper refs [31, 32]). Used as ``CAP_nom`` in Eq. 1.
        """
        return self.lifetime_full_cycles * self.capacity_ah
