"""Unit tests for the cycle-life-vs-DoD curves (Fig. 10 data)."""

import pytest

from repro.battery.cycle_life import (
    MANUFACTURER_CURVES,
    CycleLifeCurve,
    fit_curve,
    mean_curve,
)
from repro.errors import ConfigurationError


class TestFitting:
    def test_fit_recovers_exact_power_law(self):
        points = [(d, 500.0 * d**-1.2) for d in (0.2, 0.5, 1.0)]
        curve = fit_curve("exact", points)
        assert curve.n_100 == pytest.approx(500.0, rel=1e-6)
        assert curve.exponent == pytest.approx(1.2, rel=1e-6)

    def test_fit_requires_two_points(self):
        with pytest.raises(ConfigurationError):
            fit_curve("short", [(0.5, 100.0)])

    def test_fit_rejects_nonpositive_values(self):
        with pytest.raises(ConfigurationError):
            fit_curve("bad", [(0.5, 100.0), (-0.1, 50.0)])


class TestManufacturerCurves:
    @pytest.mark.parametrize("name", sorted(MANUFACTURER_CURVES))
    def test_cycles_decrease_with_dod(self, name):
        curve = MANUFACTURER_CURVES[name]
        values = [curve.cycles(d / 10.0) for d in range(2, 11)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("name", sorted(MANUFACTURER_CURVES))
    def test_fit_close_to_datasheet_points(self, name):
        curve = MANUFACTURER_CURVES[name]
        for dod, cycles in curve.points:
            assert curve.cycles(dod) == pytest.approx(cycles, rel=0.30)

    def test_paper_claim_half_life_above_fifty_percent_dod(self):
        """Fig. 10's headline: cycling above 50 % DoD halves cycle life
        relative to shallow cycling."""
        curve = mean_curve()
        assert curve.cycles(0.55) < 0.6 * curve.cycles(0.25)

    def test_total_throughput_rewards_shallow_cycling(self):
        """Shallow cycling yields more lifetime Ah — the curvature planned
        aging exploits."""
        curve = mean_curve()
        assert curve.lifetime_ah_throughput(35.0, 0.2) > curve.lifetime_ah_throughput(
            35.0, 0.8
        )

    def test_cycles_rejects_zero_dod(self):
        curve = MANUFACTURER_CURVES["trojan"]
        with pytest.raises(ConfigurationError):
            curve.cycles(0.0)

    def test_upg_is_the_budget_line(self):
        """UPG's datasheet sits well below the deep-cycle vendors."""
        assert MANUFACTURER_CURVES["upg"].cycles(0.5) < MANUFACTURER_CURVES[
            "trojan"
        ].cycles(0.5)
