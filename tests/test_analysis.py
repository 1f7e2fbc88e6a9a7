"""Unit tests for lifetime analysis and reporting helpers."""

import pytest

from repro.analysis.lifetime import lifetime_for_policies, season_day_classes
from repro.analysis.reporting import (
    format_table,
    improvement_percent,
    percent_change,
    ratio,
    reduction_percent,
)
from repro.errors import ConfigurationError
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


class TestSeasonSampling:
    def test_deterministic(self):
        a = season_day_classes(0.5, 10, seed=1)
        b = season_day_classes(0.5, 10, seed=1)
        assert a == b

    def test_count(self):
        assert len(season_day_classes(0.5, 7, seed=1)) == 7

    def test_rejects_zero_days(self):
        with pytest.raises(ConfigurationError):
            season_day_classes(0.5, 0, seed=1)

    def test_sunshine_changes_mix(self):
        dark = season_day_classes(0.1, 50, seed=1)
        bright = season_day_classes(0.95, 50, seed=1)
        assert bright.count(DayClass.SUNNY) > dark.count(DayClass.SUNNY)


class TestLifetimeEstimation:
    @pytest.fixture
    def scenario(self, tiny_scenario):
        return tiny_scenario

    def test_estimate_positive_and_finite(self, scenario):
        est = lifetime_for_policies(scenario, 0.5, n_days=2, policies=("e-buff",))[
            "e-buff"
        ]
        assert 0.0 < est.lifetime_days < float("inf")
        assert est.worst_fade_per_day >= est.mean_fade_per_day > 0.0

    def test_explicit_day_classes(self, scenario):
        est = lifetime_for_policies(
            scenario, policies=("e-buff",), day_classes=[DayClass.SUNNY, DayClass.SUNNY]
        )["e-buff"]
        assert est.season_result.duration_s == pytest.approx(2 * 86400.0)

    def test_initial_fade_shortens_remaining_life(self, tiny_scenario):
        from dataclasses import replace

        fresh = tiny_scenario
        old = replace(tiny_scenario, initial_fade=0.15)
        days = [DayClass.CLOUDY, DayClass.CLOUDY]
        e_fresh, e_old = (
            lifetime_for_policies(s, policies=("e-buff",), day_classes=days)["e-buff"]
            for s in (fresh, old)
        )
        assert e_old.lifetime_days < e_fresh.lifetime_days

    def test_policies_share_identical_weather(self, scenario):
        estimates = lifetime_for_policies(
            scenario, 0.5, n_days=2, policies=("e-buff", "baat")
        )
        assert set(estimates) == {"e-buff", "baat"}
        a = estimates["e-buff"].season_result
        b = estimates["baat"].season_result
        assert a.duration_s == b.duration_s


class TestReporting:
    def test_ratio_and_changes(self):
        assert ratio(3.0, 2.0) == 1.5
        assert percent_change(3.0, 2.0) == pytest.approx(50.0)
        assert improvement_percent(1.69, 1.0) == pytest.approx(69.0)
        assert reduction_percent(0.74, 1.0) == pytest.approx(26.0)

    def test_ratio_zero_baseline(self):
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(0.0, 0.0) == 1.0

    def test_format_table_alignment(self):
        text = format_table(
            ("name", "value"), [("a", 1.5), ("long-name", 2.25)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in text
        assert "2.250" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table(("a", "b"), [("only-one",)])
