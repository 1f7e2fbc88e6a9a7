"""The five lead-acid aging mechanisms.

Each mechanism converts one timestep of :class:`~repro.battery.aging.
conditions.OperatingConditions` into incremental *damage*, expressed as a
fraction of nominal capacity permanently lost. Damage fractions from all
mechanisms add up in :class:`~repro.battery.aging.model.AgingModel`; the
battery reaches end of life when total fade hits 20 % (the paper's 80 %-of-
initial-capacity criterion).

Calibration anchors (documented per mechanism below) are chosen so that:

- cycling-dominated use reaches end of life after
  ``BatteryParams.lifetime_full_cycles`` benign full-cycle equivalents
  (constant-Ah-throughput model, paper refs [31, 32]);
- a battery abandoned at 0 % SoC sulphates to death in ~2 months;
- pure float service lasts ~7 years (grid corrosion calendar life);
- the paper's six-month aggressive-cycling measurement (~14 % capacity
  fade, Fig. 4) is reproduced by the combined model under a comparable
  duty cycle (validated in tests and the fig04 experiment).
"""

from __future__ import annotations

import abc
from typing import List

from repro.battery.aging.conditions import OperatingConditions
from repro.battery.thermal import arrhenius_factor
from repro.units import SECONDS_PER_HOUR

#: Fade fraction at which the battery is end-of-life (80 % capacity floor).
EOL_FADE = 0.20


def soc_stress_weight(soc: float) -> float:
    """Damage weight of discharging at a given SoC.

    Mirrors the paper's partial-cycling insight (Eq. 4): Ah drawn at low
    SoC is more damaging than Ah drawn near full charge. Uses the same four
    SoC regions as Eq. 3 with super-linear weights — region A (100-80 %)
    is the benign baseline, region D (below 40 %) is 3x as damaging.
    """
    soc = max(0.0, min(1.0, soc))
    if soc >= 0.80:
        return 1.0
    if soc >= 0.60:
        return 1.5
    if soc >= 0.40:
        return 2.1
    return 3.0


def rate_stress_weight(rate_normalized: float) -> float:
    """Damage weight of the discharge rate relative to the 20-h rate.

    Rates at or below nominal are benign (weight 1); the weight grows with
    the fourth root of the rate multiple and saturates at 2x, reflecting
    that rate principally matters in *combination* with low SoC and via
    self-heating (which the thermal model captures separately).
    """
    if rate_normalized <= 1.0:
        return 1.0
    return min(2.0, rate_normalized**0.25)


class AgingMechanism(abc.ABC):
    """Interface for one aging mechanism.

    Subclasses implement :meth:`damage`, returning the incremental capacity
    fade (fraction of nominal capacity) caused by ``dt`` seconds spent in
    the given operating conditions. Mechanisms are stateless; any history
    dependence (e.g. time since full recharge) arrives via the conditions
    snapshot.
    """

    #: Stable key used in damage breakdowns and logs.
    name: str = "mechanism"

    #: Fraction of this mechanism's damage that manifests as internal-
    #: resistance growth (vs pure capacity loss). Corrosion and sulphation
    #: are the resistive mechanisms.
    resistance_share: float = 0.0

    @abc.abstractmethod
    def damage(self, cond: OperatingConditions, dt: float) -> float:
        """Incremental capacity-fade fraction for ``dt`` seconds."""


class GridCorrosion(AgingMechanism):
    """Positive-grid corrosion — calendar aging.

    Proceeds whenever the battery exists, accelerated by temperature
    (Arrhenius), by float charging (sustained positive-plate polarisation),
    and mildly by high SoC (higher acid density). Calibrated so that pure
    float service at 25 deg C reaches end of life in about seven years,
    the middle of the paper's quoted 3-10-year lead-acid service band.
    """

    name = "corrosion"
    resistance_share = 0.7

    #: Base fade per second at 20 deg C, mid SoC, no float. At 25 deg C
    #: with full-time float the combined multipliers (~3.3x) land a pure
    #: float-service block at ~5 years — inside the 3-10-year band the
    #: paper quotes for lead-acid.
    base_rate = EOL_FADE / (16.0 * 365.0 * 86400.0)
    float_multiplier = 0.8
    high_soc_multiplier = 0.3

    def damage(self, cond: OperatingConditions, dt: float) -> float:
        rate = self.base_rate * arrhenius_factor(cond.temperature_c)
        if cond.is_float_charging:
            rate *= 1.0 + self.float_multiplier
        if cond.soc > 0.9:
            rate *= 1.0 + self.high_soc_multiplier * (cond.soc - 0.9) / 0.1
        return rate * dt


class ActiveMassDegradation(AgingMechanism):
    """Active-mass degradation and shedding — cycling wear.

    Proportional to discharged Ah throughput, weighted by SoC region and
    discharge rate and accelerated by temperature. Calibration: with all
    weights at 1 the battery delivers exactly
    ``BatteryParams.lifetime_full_cycles`` full-cycle equivalents of charge
    before this mechanism alone reaches end of life — the constant-Ah-
    throughput lifetime model. With ``stress_weights`` off, that is the
    damage of every Ah.
    """

    name = "active_mass"
    resistance_share = 0.15

    def __init__(self, lifetime_full_cycles: float = 380.0, stress_weights: bool = True):
        self.lifetime_full_cycles = lifetime_full_cycles
        self.stress_weights = stress_weights

    def damage(self, cond: OperatingConditions, dt: float) -> float:
        if not cond.is_discharging or cond.capacity_ah <= 0:
            return 0.0
        ah = cond.current * dt / SECONDS_PER_HOUR
        nat_increment = ah / cond.capacity_ah  # fraction of one full cycle
        weight = 1.0
        if self.stress_weights:
            weight = (
                soc_stress_weight(cond.soc)
                * rate_stress_weight(cond.discharge_rate_normalized)
                * arrhenius_factor(cond.temperature_c) ** 0.5
            )
        per_cycle_fade = EOL_FADE / self.lifetime_full_cycles
        return per_cycle_fade * nat_increment * weight


class Sulphation(AgingMechanism):
    """Irreversible lead-sulphate formation — the low-SoC killer.

    Accrues while the battery sits below 40 % SoC without timely recharge,
    growing with depth below the threshold, with time since the last full
    charge (crystal growth is progressive), and with temperature.
    Calibration: a battery abandoned fully discharged at 25 deg C is dead
    in roughly two months.
    """

    name = "sulphation"
    resistance_share = 0.6

    low_soc_threshold = 0.40
    #: Fade per second at SoC = 0, 20 deg C, crystals fully developed.
    base_rate = EOL_FADE / (55.0 * 86400.0)

    def __init__(self, rate_scale: float = 1.0):
        self.base_rate = Sulphation.base_rate * rate_scale

    def damage(self, cond: OperatingConditions, dt: float) -> float:
        if cond.soc >= self.low_soc_threshold:
            return 0.0
        depth = (self.low_soc_threshold - cond.soc) / self.low_soc_threshold
        # Crystal growth develops over ~48 h without a full recharge.
        staleness = max(0.1, min(1.0, cond.hours_since_full_charge / 48.0))
        rate = self.base_rate * depth * staleness * arrhenius_factor(cond.temperature_c)
        return rate * dt


class WaterLoss(AgingMechanism):
    """Drying out of a VRLA block through gassing.

    Driven by the portion of charge current lost to electrolysis
    (over-charge / float near full SoC), accelerated by temperature. Water
    cannot be refilled in a sealed block, so the loss is permanent.
    Calibration: losing 100 full-charge equivalents to gassing costs the
    block its life — heavy daily overcharging alone would take ~5 years.
    """

    name = "water_loss"
    resistance_share = 0.2

    fade_per_gassing_cycle = EOL_FADE / 100.0

    def damage(self, cond: OperatingConditions, dt: float) -> float:
        if cond.gassing_current <= 0.0 or cond.capacity_ah <= 0:
            return 0.0
        gassing_ah = cond.gassing_current * dt / SECONDS_PER_HOUR
        fraction_of_cycle = gassing_ah / cond.capacity_ah
        accel = arrhenius_factor(cond.temperature_c)
        return self.fade_per_gassing_cycle * fraction_of_cycle * accel


class Stratification(AgingMechanism):
    """Electrolyte stratification under chronic partial cycling.

    When a battery cycles without periodically reaching full charge (whose
    gassing stirs the electrolyte), dense acid settles and the plate
    bottoms sulphate preferentially. Damage accrues while cycling with a
    stale full charge, faster at deep discharge with low current (the
    paper's "deeply discharged with very low current" condition).
    Calibration: perpetual partial cycling with no full recharge costs the
    battery its life in about 1.5 years from this mechanism alone.
    """

    name = "stratification"
    resistance_share = 0.3

    base_rate = EOL_FADE / (1.5 * 365.0 * 86400.0)
    #: Hours without a full recharge at which stratification saturates.
    saturation_hours = 72.0

    def damage(self, cond: OperatingConditions, dt: float) -> float:
        if cond.current == 0.0:
            return 0.0
        staleness = max(
            0.0, min(1.0, cond.hours_since_full_charge / self.saturation_hours)
        )
        if staleness == 0.0:
            return 0.0
        rate = self.base_rate * staleness
        if cond.is_discharging and cond.soc < 0.4 and cond.discharge_rate_normalized < 1.0:
            rate *= 1.5  # deep, low-current discharge is the worst case
        return rate * dt


def default_mechanisms(
    lifetime_full_cycles: float = 380.0,
    sulphation_rate_scale: float = 1.0,
    stress_weights: bool = True,
) -> List[AgingMechanism]:
    """The paper's five mechanisms, calibrated as
    :class:`~repro.battery.params.BatteryParams` describes."""
    return [
        GridCorrosion(),
        ActiveMassDegradation(lifetime_full_cycles, stress_weights),
        Sulphation(sulphation_rate_scale),
        WaterLoss(),
        Stratification(),
    ]
