"""Online battery-lifetime prediction from runtime metrics.

BAAT "proactively predicts battery lifetime and trades off unnecessary
battery service life for better datacenter productivity" (section I).
Two predictors are provided, mirroring the two lifetime-model families
the paper's section VII surveys:

- :func:`predict_by_throughput` — the constant-Ah-throughput model
  (paper refs [31, 32] and Eq. 1): remaining life is the unburned share
  of the nominal life-long charge, divided by the observed discharge
  rate;
- :func:`predict_by_damage` — the damage-extrapolation model: remaining
  life is the distance to the 80 %-capacity floor divided by the
  observed fade rate (what :mod:`repro.analysis.lifetime` uses offline).

:class:`LifetimePredictor` blends the two (a damage-weighted average —
the throughput model is exact only when cycling conditions stay benign,
which the damage trend detects) and reports agreement, so the planner
can tell a confident prediction from a shaky one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.battery.aging.mechanisms import EOL_FADE
from repro.battery.unit import BatteryUnit
from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY


def predict_by_throughput(battery: BatteryUnit, elapsed_s: float) -> float:
    """Remaining lifetime (days) under the constant-Ah-throughput model.

    Returns ``inf`` for a battery that has not discharged yet.
    """
    if elapsed_s <= 0:
        raise ConfigurationError("elapsed_s must be positive")
    used_ah = battery.aging.state.discharged_ah
    if used_ah <= 0.0:
        return math.inf
    total_ah = battery.params.lifetime_ah_throughput
    remaining_ah = max(0.0, total_ah - used_ah)
    rate_per_day = used_ah / (elapsed_s / SECONDS_PER_DAY)
    return remaining_ah / rate_per_day if rate_per_day > 0 else math.inf


def predict_by_damage(battery: BatteryUnit, elapsed_s: float) -> float:
    """Remaining lifetime (days) by extrapolating the observed fade rate.

    Returns ``inf`` for a battery with no accumulated fade.
    """
    if elapsed_s <= 0:
        raise ConfigurationError("elapsed_s must be positive")
    fade = battery.capacity_fade
    if fade <= 0.0:
        return math.inf
    rate_per_day = fade / (elapsed_s / SECONDS_PER_DAY)
    remaining = max(0.0, EOL_FADE - fade)
    return remaining / rate_per_day if rate_per_day > 0 else math.inf


@dataclass(frozen=True)
class LifetimePrediction:
    """A blended lifetime prediction with its components.

    Attributes
    ----------
    remaining_days:
        The blended estimate.
    by_throughput_days / by_damage_days:
        The two component models.
    agreement:
        Ratio of the smaller to the larger component in (0, 1]; near 1
        means the models agree (benign, regular cycling), small values
        mean conditions are harsher than the throughput model assumes.
    """

    remaining_days: float
    by_throughput_days: float
    by_damage_days: float

    @property
    def agreement(self) -> float:
        a, b = self.by_throughput_days, self.by_damage_days
        if math.isinf(a) and math.isinf(b):
            return 1.0
        if math.isinf(a) or math.isinf(b) or a <= 0 or b <= 0:
            return 0.0
        return min(a, b) / max(a, b)


class LifetimePredictor:
    """Blends the two models, weighting toward damage as fade grows.

    A new battery has no damage signal, so the throughput model carries
    the estimate; as fade accumulates the damage extrapolation becomes
    the better-informed (it sees the *severity* of the cycling, not just
    its volume) and takes over.
    """

    def __init__(self, damage_weight_gain: float = 4.0):
        if damage_weight_gain < 0:
            raise ConfigurationError("damage_weight_gain must be >= 0")
        self.damage_weight_gain = damage_weight_gain

    def predict(self, battery: BatteryUnit, elapsed_s: float) -> LifetimePrediction:
        """Predict remaining lifetime for a battery observed for
        ``elapsed_s`` seconds."""
        by_tp = predict_by_throughput(battery, elapsed_s)
        by_dm = predict_by_damage(battery, elapsed_s)
        if math.isinf(by_tp) and math.isinf(by_dm):
            blended = math.inf
        elif math.isinf(by_tp):
            blended = by_dm
        elif math.isinf(by_dm):
            blended = by_tp
        else:
            # Weight toward the damage model as fade approaches EOL.
            w = min(1.0, self.damage_weight_gain * battery.capacity_fade / EOL_FADE)
            blended = (1.0 - w) * by_tp + w * by_dm
        return LifetimePrediction(
            remaining_days=blended,
            by_throughput_days=by_tp,
            by_damage_days=by_dm,
        )
