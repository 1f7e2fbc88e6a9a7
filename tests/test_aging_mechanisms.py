"""Unit tests for the five aging mechanisms."""

import pytest

from repro.battery.aging.conditions import OperatingConditions
from repro.battery.aging.mechanisms import (
    ActiveMassDegradation,
    GridCorrosion,
    Stratification,
    Sulphation,
    WaterLoss,
    default_mechanisms,
    rate_stress_weight,
    soc_stress_weight,
)
from repro.units import days, hours


def conditions(**overrides) -> OperatingConditions:
    base = dict(
        soc=0.8,
        current=0.0,
        temperature_c=25.0,
        reference_current=1.75,
        capacity_ah=35.0,
    )
    base.update(overrides)
    return OperatingConditions(**base)


class TestStressWeights:
    def test_soc_weight_benign_at_high_soc(self):
        assert soc_stress_weight(0.9) == 1.0

    def test_soc_weight_worst_below_forty_percent(self):
        assert soc_stress_weight(0.1) == 3.0

    def test_soc_weight_monotone(self):
        weights = [soc_stress_weight(s / 10.0) for s in range(10, -1, -1)]
        for a, b in zip(weights, weights[1:]):
            assert b >= a

    def test_rate_weight_unity_at_or_below_nominal(self):
        assert rate_stress_weight(0.5) == 1.0
        assert rate_stress_weight(1.0) == 1.0

    def test_rate_weight_saturates(self):
        assert rate_stress_weight(100.0) == 2.0


class TestGridCorrosion:
    def test_accrues_at_rest(self):
        mech = GridCorrosion()
        assert mech.damage(conditions(), days(1)) > 0.0

    def test_float_charging_accelerates(self):
        mech = GridCorrosion()
        base = mech.damage(conditions(), days(1))
        floated = mech.damage(conditions(is_float_charging=True), days(1))
        assert floated > base

    def test_temperature_accelerates(self):
        mech = GridCorrosion()
        cool = mech.damage(conditions(temperature_c=20.0), days(1))
        hot = mech.damage(conditions(temperature_c=30.0), days(1))
        assert hot == pytest.approx(2.0 * cool)

    def test_calendar_life_calibration(self):
        """Pure float service should last years, not months."""
        mech = GridCorrosion()
        per_year = mech.damage(
            conditions(soc=1.0, is_float_charging=True, temperature_c=25.0),
            days(365),
        )
        years_to_eol = 0.20 / per_year
        assert 3.0 < years_to_eol < 10.0


class TestActiveMass:
    def test_no_damage_when_not_discharging(self):
        mech = ActiveMassDegradation()
        assert mech.damage(conditions(current=0.0), hours(1)) == 0.0
        assert mech.damage(conditions(current=-5.0), hours(1)) == 0.0

    def test_damage_proportional_to_throughput(self):
        # Both currents below the reference rate, so the rate-stress
        # weight is 1 and damage is purely proportional to Ah.
        mech = ActiveMassDegradation()
        one = mech.damage(conditions(current=0.5), hours(1))
        two = mech.damage(conditions(current=1.0), hours(1))
        assert two == pytest.approx(2.0 * one)

    def test_low_soc_discharge_damages_more(self):
        mech = ActiveMassDegradation()
        high = mech.damage(conditions(current=2.0, soc=0.9), hours(1))
        low = mech.damage(conditions(current=2.0, soc=0.2), hours(1))
        assert low > 2.0 * high

    def test_constant_throughput_calibration(self):
        """At unit weights, lifetime_full_cycles full cycles reach EOL."""
        mech = ActiveMassDegradation(lifetime_full_cycles=380.0)
        # One full cycle at benign SoC/rate/temperature: 35 Ah at 1.75 A.
        d = mech.damage(
            conditions(current=1.75, soc=0.9, temperature_c=20.0), hours(20)
        )
        assert d == pytest.approx(0.20 / 380.0, rel=1e-6)

    def test_flat_wear_ignores_stress(self):
        """Without stress weights every Ah costs the benign-cycle rate."""
        mech = ActiveMassDegradation(stress_weights=False)
        d = mech.damage(
            conditions(current=17.5, soc=0.1, temperature_c=45.0), hours(1)
        )
        assert d == pytest.approx(0.20 / 380.0 * 0.5, rel=1e-12)


class TestSulphation:
    def test_rate_scale_scales_damage(self):
        cond = conditions(soc=0.1, hours_since_full_charge=72)
        base = Sulphation().damage(cond, days(1))
        assert Sulphation(rate_scale=2.0).damage(cond, days(1)) == 2.0 * base
        assert Sulphation(rate_scale=0.0).damage(cond, days(1)) == 0.0

    def test_zero_above_threshold(self):
        mech = Sulphation()
        assert mech.damage(conditions(soc=0.5), days(1)) == 0.0

    def test_deeper_is_worse(self):
        mech = Sulphation()
        shallow = mech.damage(conditions(soc=0.35, hours_since_full_charge=72), days(1))
        deep = mech.damage(conditions(soc=0.05, hours_since_full_charge=72), days(1))
        assert deep > shallow

    def test_staleness_matters(self):
        mech = Sulphation()
        fresh = mech.damage(conditions(soc=0.2, hours_since_full_charge=1.0), days(1))
        stale = mech.damage(conditions(soc=0.2, hours_since_full_charge=100.0), days(1))
        assert stale > fresh

    def test_abandoned_battery_dies_in_about_two_months(self):
        mech = Sulphation()
        per_day = mech.damage(
            conditions(soc=0.0, temperature_c=25.0, hours_since_full_charge=1000.0),
            days(1),
        )
        days_to_eol = 0.20 / per_day
        assert 30.0 < days_to_eol < 90.0


class TestWaterLoss:
    def test_zero_without_gassing(self):
        mech = WaterLoss()
        assert mech.damage(conditions(current=-5.0, gassing_current=0.0), hours(1)) == 0.0

    def test_proportional_to_gassing_charge(self):
        mech = WaterLoss()
        one = mech.damage(conditions(current=-5.0, gassing_current=0.5), hours(1))
        two = mech.damage(conditions(current=-5.0, gassing_current=1.0), hours(1))
        assert two == pytest.approx(2.0 * one)

    def test_temperature_accelerates(self):
        mech = WaterLoss()
        cool = mech.damage(
            conditions(current=-5.0, gassing_current=0.5, temperature_c=20.0), hours(1)
        )
        hot = mech.damage(
            conditions(current=-5.0, gassing_current=0.5, temperature_c=30.0), hours(1)
        )
        assert hot == pytest.approx(2.0 * cool)


class TestStratification:
    def test_zero_at_rest(self):
        mech = Stratification()
        assert mech.damage(conditions(current=0.0, hours_since_full_charge=100), days(1)) == 0.0

    def test_zero_right_after_full_charge(self):
        mech = Stratification()
        assert mech.damage(conditions(current=2.0, hours_since_full_charge=0.0), days(1)) == 0.0

    def test_grows_with_staleness_then_saturates(self):
        mech = Stratification()
        d24 = mech.damage(conditions(current=2.0, hours_since_full_charge=24), days(1))
        d72 = mech.damage(conditions(current=2.0, hours_since_full_charge=72), days(1))
        d200 = mech.damage(conditions(current=2.0, hours_since_full_charge=200), days(1))
        assert d24 < d72
        assert d200 == pytest.approx(d72)

    def test_deep_low_current_discharge_is_worst(self):
        mech = Stratification()
        normal = mech.damage(
            conditions(current=5.0, soc=0.5, hours_since_full_charge=100), days(1)
        )
        worst = mech.damage(
            conditions(current=0.5, soc=0.2, hours_since_full_charge=100), days(1)
        )
        assert worst > normal


def test_default_mechanisms_covers_all_five():
    names = {m.name for m in default_mechanisms()}
    assert names == {
        "corrosion",
        "active_mass",
        "sulphation",
        "water_loss",
        "stratification",
    }
