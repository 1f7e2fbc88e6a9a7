"""Unit tests for battery parameters."""

import pytest

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_battery_is_12v_35ah(self, params):
        assert params.nominal_voltage == 12.0
        assert params.capacity_ah == 35.0
        assert params.cells == 6

    def test_reference_current_is_20_hour_rate(self, params):
        assert params.reference_current == pytest.approx(35.0 / 20.0)

    def test_lifetime_throughput_is_cycles_times_capacity(self, params):
        assert params.lifetime_ah_throughput == pytest.approx(
            params.lifetime_full_cycles * params.capacity_ah
        )

    def test_ocv_window_ordering(self, params):
        assert params.ocv_empty < params.ocv_full
        assert params.cutoff_voltage < params.ocv_empty


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(capacity_ah=0.0)

    def test_rejects_inverted_ocv_window(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(ocv_full=11.0, ocv_empty=12.0)

    def test_rejects_negative_resistance(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(internal_resistance_ohm=-0.01)

    def test_rejects_bad_cutoff_soc(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(cutoff_soc=1.0)

    def test_rejects_peukert_below_one(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(peukert_exponent=0.9)

    def test_rejects_bad_coulombic_efficiency(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(coulombic_efficiency=0.0)

    def test_rejects_bad_eol_fraction(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(eol_capacity_fraction=1.0)

    def test_rejects_negative_feedback_gain(self):
        with pytest.raises(ConfigurationError, match="aging_feedback_gain"):
            BatteryParams(aging_feedback_gain=-0.5)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_sulphation_scale(self, scale):
        with pytest.raises(ConfigurationError, match="sulphation_rate_scale"):
            BatteryParams(sulphation_rate_scale=scale)

    def test_accepts_calibration_edges(self):
        params = BatteryParams(aging_feedback_gain=0.0, sulphation_rate_scale=0.0)
        assert params.aging_feedback_gain == 0.0
