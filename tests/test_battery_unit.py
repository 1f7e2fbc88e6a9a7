"""Unit tests for the stateful battery unit."""

import pytest

from repro.battery.aging.mechanisms import Sulphation
from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.errors import BatteryCutoffError, ConfigurationError
from repro.units import hours


class TestConstruction:
    def test_defaults(self, battery):
        assert battery.soc == 1.0
        assert battery.capacity_fade == 0.0
        assert battery.effective_capacity_ah == pytest.approx(35.0)

    def test_rejects_bad_initial_soc(self, params):
        with pytest.raises(ConfigurationError):
            BatteryUnit(params, initial_soc=1.5)

    def test_capacity_factor_scales_capacity(self, params):
        weak = BatteryUnit(params, capacity_factor=0.95)
        assert weak.effective_capacity_ah == pytest.approx(0.95 * 35.0)

    def test_rejects_nonpositive_capacity_factor(self, params):
        with pytest.raises(ConfigurationError):
            BatteryUnit(params, capacity_factor=0.0)

    def test_aging_calibration_comes_from_params(self):
        params = BatteryParams(
            aging_feedback_gain=3.0,
            sulphation_rate_scale=0.5,
            active_mass_stress_weights=False,
        )
        aging = BatteryUnit(params).aging
        by_name = {m.name: m for m in aging.mechanisms}
        assert aging.feedback_gain == 3.0
        assert by_name["sulphation"].base_rate == 0.5 * Sulphation.base_rate
        assert not by_name["active_mass"].stress_weights


class TestDischarge:
    def test_delivers_requested_power(self, battery):
        result = battery.discharge(100.0, 60.0)
        assert result.delivered_power_w == pytest.approx(100.0, rel=0.01)
        assert not result.curtailed
        assert result.current_a > 0.0

    def test_soc_drops(self, battery):
        battery.discharge(100.0, hours(1))
        assert battery.soc < 1.0

    def test_energy_accounting(self, battery):
        battery.discharge(120.0, hours(2))
        assert battery.energy_out_wh == pytest.approx(240.0, rel=0.02)

    def test_peukert_drains_more_at_high_rate(self, params):
        gentle = BatteryUnit(params)
        harsh = BatteryUnit(params)
        # Same energy, different rates.
        for _ in range(8):
            gentle.discharge(25.0, hours(1))
        for _ in range(2):
            harsh.discharge(100.0, hours(1))
        assert harsh.soc < gentle.soc

    def test_curtails_at_cutoff_soc(self, params):
        battery = BatteryUnit(params, initial_soc=params.cutoff_soc)
        result = battery.discharge(100.0, 60.0)
        assert result.curtailed
        assert result.delivered_power_w == 0.0

    def test_strict_raises_at_cutoff(self, params):
        battery = BatteryUnit(params, initial_soc=params.cutoff_soc)
        with pytest.raises(BatteryCutoffError):
            battery.discharge(100.0, 60.0, strict=True)

    def test_cannot_drain_below_cutoff(self, battery, params):
        """Discharge stops at the cut-off floor; only rest-time
        self-discharge can leak marginally below it afterwards."""
        for _ in range(100):
            battery.discharge(200.0, hours(1))
        leak_allowance = params.cutoff_soc * 0.01
        assert battery.soc >= params.cutoff_soc - leak_allowance

    def test_zero_power_is_rest(self, battery):
        result = battery.discharge(0.0, 60.0)
        assert result.delivered_power_w == 0.0
        assert battery.soc == pytest.approx(1.0, abs=1e-5)  # bar self-discharge

    def test_rejects_negative_power(self, battery):
        with pytest.raises(ConfigurationError):
            battery.discharge(-5.0, 60.0)

    def test_rejects_nonpositive_dt(self, battery):
        with pytest.raises(ConfigurationError):
            battery.discharge(10.0, 0.0)


class TestCharge:
    def test_soc_rises(self, params):
        battery = BatteryUnit(params, initial_soc=0.5)
        battery.charge(60.0, hours(1))
        assert battery.soc > 0.5

    def test_acceptance_limited(self, params):
        battery = BatteryUnit(params, initial_soc=0.5)
        result = battery.charge(10_000.0, 60.0)
        assert result.curtailed
        # Bulk limit is C/5 = 7 A.
        assert abs(result.current_a) <= battery.charger.max_current + 1e-6

    def test_full_battery_accepts_nothing(self, battery):
        before_in = battery.energy_in_wh
        result = battery.charge(100.0, 60.0)
        assert result.delivered_power_w == 0.0
        assert battery.energy_in_wh == before_in

    def test_gassing_current_reported(self, params):
        battery = BatteryUnit(params, initial_soc=0.5)
        result = battery.charge(60.0, 60.0)
        assert result.gassing_current_a > 0.0

    def test_full_charge_resets_staleness(self, params):
        battery = BatteryUnit(params, initial_soc=0.9)
        assert battery.hours_since_full_charge > 0.0
        for _ in range(40):
            battery.charge(50.0, hours(1))
        assert battery.soc >= 0.99
        assert battery.hours_since_full_charge == 0.0

    def test_round_trip_efficiency_below_one(self, params):
        battery = BatteryUnit(params, initial_soc=1.0)
        battery.discharge(60.0, hours(3))
        for _ in range(10):
            battery.charge(50.0, hours(1))
        # Fig. 5 reads efficiency off the terminal energy counters.
        eta = battery.energy_out_wh / battery.energy_in_wh
        assert 0.5 < eta < 1.0


class TestRestAndAging:
    def test_rest_advances_time(self, battery):
        battery.rest(hours(5))
        assert battery.time_s == pytest.approx(hours(5))

    def test_rest_accrues_calendar_aging(self, battery):
        battery.rest(hours(24 * 30))
        assert battery.capacity_fade > 0.0

    def test_cycling_ages_faster_than_rest(self, params):
        rester = BatteryUnit(params)
        cycler = BatteryUnit(params)
        rester.rest(hours(48))
        for _ in range(2):
            cycler.discharge(100.0, hours(12))
            cycler.charge(60.0, hours(12))
        assert cycler.capacity_fade > rester.capacity_fade

    def test_aging_reduces_max_power(self, params):
        fresh = BatteryUnit(params)
        aged = BatteryUnit(params)
        aged.aging.state.damage["active_mass"] = 0.15
        aged.aging.state.damage["corrosion"] = 0.03
        assert aged.max_discharge_power() < fresh.max_discharge_power()


class TestLastCurrentProperty:
    """Regression: the engine used to reach into ``_last_current``."""

    def test_zero_before_any_step(self, battery):
        assert battery.last_current_a == 0.0

    def test_positive_during_discharge(self, battery):
        battery.discharge(100.0, 60.0)
        assert battery.last_current_a > 0.0
        assert battery.last_current_a == battery._last_current

    def test_negative_during_charge(self, params):
        unit = BatteryUnit(params=params, initial_soc=0.5, name="charging")
        unit.charge(100.0, 60.0)
        assert unit.last_current_a < 0.0
        assert unit.last_current_a == unit._last_current

    def test_reset_to_zero_at_rest(self, battery):
        battery.discharge(100.0, 60.0)
        battery.rest(60.0)
        assert battery.last_current_a == 0.0
