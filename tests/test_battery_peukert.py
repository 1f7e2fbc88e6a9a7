"""Unit tests for the Peukert rate-capacity effect."""

import pytest

from repro.battery.params import BatteryParams
from repro.battery.peukert import peukert_factor
from repro.errors import ConfigurationError


class TestPeukertFactor:
    def test_unity_at_reference_current(self, params):
        assert peukert_factor(params.reference_current, params) == pytest.approx(1.0)

    def test_unity_below_reference(self, params):
        assert peukert_factor(0.5, params) == 1.0

    def test_grows_above_reference(self, params):
        assert peukert_factor(10.0, params) > 1.0

    def test_monotone_in_current(self, params):
        factors = [peukert_factor(i, params) for i in (2.0, 5.0, 10.0, 20.0, 35.0)]
        assert factors == sorted(factors)

    def test_exact_power_law(self, params):
        i = 3.0 * params.reference_current
        expected = 3.0 ** (params.peukert_exponent - 1.0)
        assert peukert_factor(i, params) == pytest.approx(expected)

    def test_rejects_negative_current(self, params):
        with pytest.raises(ConfigurationError):
            peukert_factor(-1.0, params)

    def test_k_equals_one_disables_effect(self):
        ideal = BatteryParams(peukert_exponent=1.0)
        assert peukert_factor(35.0, ideal) == pytest.approx(1.0)

