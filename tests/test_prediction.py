"""Unit tests for online lifetime prediction."""

import math

import pytest

from repro.analysis.prediction import (
    LifetimePredictor,
    predict_by_damage,
    predict_by_throughput,
)
from repro.battery.unit import BatteryUnit
from repro.errors import ConfigurationError
from repro.units import days, hours


def cycled_battery(n_days=30, discharge_w=40.0):
    """A battery that has run a daily cycle for ``n_days``."""
    battery = BatteryUnit(name="pred")
    for _ in range(n_days):
        for _ in range(5):
            battery.discharge(discharge_w, hours(1))
        for _ in range(8):
            battery.charge(45.0, hours(1))
        battery.rest(hours(11))
    return battery, n_days * 86400.0


class TestThroughputModel:
    def test_fresh_battery_predicts_infinite(self, battery):
        assert predict_by_throughput(battery, days(1)) == math.inf

    def test_steady_cycling_prediction(self):
        battery, elapsed = cycled_battery()
        remaining = predict_by_throughput(battery, elapsed)
        # At ~16 Ah/day against a 13 300 Ah budget, several hundred days.
        assert 100.0 < remaining < 3000.0

    def test_heavier_use_shortens_prediction(self):
        light, elapsed = cycled_battery(discharge_w=25.0)
        heavy, _ = cycled_battery(discharge_w=60.0)
        assert predict_by_throughput(heavy, elapsed) < predict_by_throughput(
            light, elapsed
        )

    def test_rejects_bad_elapsed(self, battery):
        with pytest.raises(ConfigurationError):
            predict_by_throughput(battery, 0.0)


class TestDamageModel:
    def test_fresh_battery_predicts_infinite(self, battery):
        assert predict_by_damage(battery, days(1)) == math.inf

    def test_prediction_consistent_with_observed_rate(self):
        battery, elapsed = cycled_battery()
        remaining = predict_by_damage(battery, elapsed)
        fade_rate = battery.capacity_fade / (elapsed / 86400.0)
        assert remaining == pytest.approx((0.20 - battery.capacity_fade) / fade_rate)

    def test_nearly_dead_battery_predicts_near_zero(self):
        battery, elapsed = cycled_battery(n_days=10)
        battery.aging.state.damage["active_mass"] = 0.199
        assert predict_by_damage(battery, elapsed) < 5.0


class TestBlendedPredictor:
    def test_agreement_metric(self):
        battery, elapsed = cycled_battery()
        prediction = LifetimePredictor().predict(battery, elapsed)
        assert 0.0 < prediction.agreement <= 1.0
        assert prediction.remaining_days > 0.0

    def test_blend_between_components(self):
        battery, elapsed = cycled_battery()
        p = LifetimePredictor().predict(battery, elapsed)
        lo = min(p.by_throughput_days, p.by_damage_days)
        hi = max(p.by_throughput_days, p.by_damage_days)
        assert lo - 1e-9 <= p.remaining_days <= hi + 1e-9

    def test_fresh_battery_blends_to_infinity(self, battery):
        p = LifetimePredictor().predict(battery, days(1))
        assert math.isinf(p.remaining_days)
        assert p.agreement == 1.0

    def test_damage_takes_over_near_eol(self):
        battery, elapsed = cycled_battery(n_days=10)
        battery.aging.state.damage["sulphation"] = 0.15
        p = LifetimePredictor().predict(battery, elapsed)
        # Heavy damage pulls the blend to the (short) damage estimate.
        assert p.remaining_days == pytest.approx(p.by_damage_days, rel=0.05)

    def test_rejects_negative_gain(self):
        with pytest.raises(ConfigurationError):
            LifetimePredictor(damage_weight_gain=-1.0)
