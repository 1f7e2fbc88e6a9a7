"""Unit tests for the event-based replacement simulator."""

import pytest

from repro.battery.params import BatteryParams
from repro.cost.replacement import ReplacementSimulator
from repro.errors import ConfigurationError


@pytest.fixture
def simulator():
    return ReplacementSimulator(BatteryParams(), n_batteries=6, seed=7)


class TestSchedules:
    def test_faster_damage_means_more_replacements(self, simulator):
        slow = simulator.simulate(0.0005, horizon_days=1460.0)
        fast = simulator.simulate(0.0020, horizon_days=1460.0)
        assert fast.replacements > slow.replacements
        assert fast.annual_cost_usd > slow.annual_cost_usd

    def test_event_days_within_horizon(self, simulator):
        schedule = simulator.simulate(0.002, horizon_days=1000.0)
        assert all(0.0 < e.day <= 1000.0 for e in schedule.events)

    def test_every_unit_replaced_eventually(self, simulator):
        schedule = simulator.simulate(0.002, horizon_days=1460.0)
        assert {e.unit for e in schedule.events} == set(range(6))

    def test_cost_accounting(self, simulator):
        schedule = simulator.simulate(0.002, horizon_days=1460.0)
        assert schedule.total_cost_usd == pytest.approx(
            schedule.replacements * schedule.unit_cost_usd
        )

    def test_annual_cost_matches_straight_line_asymptotically(self, simulator):
        """With no spread, the event-based annual cost converges to the
        Fig.-16 straight-line depreciation."""
        rate = 0.002
        schedule = simulator.simulate(rate, horizon_days=36500.0, damage_spread=0.0)
        lifetime_days = 0.20 / rate
        straight_line = 6 * schedule.unit_cost_usd * 365.0 / lifetime_days
        assert schedule.annual_cost_usd == pytest.approx(straight_line, rel=0.05)


class TestCompare:
    def test_policy_comparison(self, simulator):
        schedules = simulator.compare({"e-buff": 0.0024, "baat": 0.0014})
        assert schedules["baat"].annual_cost_usd < schedules["e-buff"].annual_cost_usd

    def test_validation(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.simulate(0.0, horizon_days=100.0)
        with pytest.raises(ConfigurationError):
            simulator.simulate(0.001, horizon_days=0.0)
        with pytest.raises(ConfigurationError):
            ReplacementSimulator(BatteryParams(), n_batteries=0)
