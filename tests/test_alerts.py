"""Tests for the declarative alert engine (`repro.obs.alerts`)."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.obs import BUS, TraceBus, disable_observability
from repro.obs.alerts import (
    ALERTS,
    AlertEngine,
    AlertRule,
    default_rules,
    severity_rank,
)
from repro.obs.sinks import MemorySink


@pytest.fixture(autouse=True)
def _clean_obs_state():
    BUS.clear_sinks()
    ALERTS.enabled = False
    ALERTS.reset()
    yield
    disable_observability()
    BUS.clear_sinks()
    ALERTS.reset()


def engine_with(*rules: AlertRule) -> AlertEngine:
    engine = AlertEngine(rules)
    engine.enabled = True
    return engine


ABOVE = AlertRule(
    name="hot", severity="warning", threshold=10.0, direction="above",
    clear_margin=2.0,
)


class TestRuleValidation:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="x", severity="apocalyptic")

    def test_unknown_kind_and_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="x", kind="telepathy")
        with pytest.raises(ConfigurationError):
            AlertRule(name="x", direction="sideways")

    def test_rate_rule_needs_window(self):
        with pytest.raises(ConfigurationError):
            AlertRule(name="x", kind="rate", window_s=0.0)

    def test_severity_rank_orders(self):
        assert (
            severity_rank("info")
            < severity_rank("warning")
            < severity_rank("critical")
        )


class TestThresholdHysteresis:
    def test_fires_on_breach_only(self):
        engine = engine_with(ABOVE)
        assert engine.observe("hot", "n1", 9.0, t=0.0) is None
        event = engine.observe("hot", "n1", 11.0, t=10.0)
        assert event is not None and not event.cleared
        assert event.severity == "warning" and event.node == "n1"

    def test_clears_only_past_the_margin(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        # Inside the hysteresis band (threshold - margin = 8): still active.
        assert engine.observe("hot", "n1", 9.0, t=1.0) is None
        assert len(engine.active()) == 1
        cleared = engine.observe("hot", "n1", 7.9, t=2.0)
        assert cleared is not None and cleared.cleared
        assert cleared.severity == "info"
        assert engine.active() == []

    def test_is_active_tracks_the_episode(self):
        engine = engine_with(ABOVE)
        assert not engine.is_active("hot", "n1")
        engine.observe("hot", "n1", 11.0, t=0.0)
        assert engine.is_active("hot", "n1")
        assert not engine.is_active("hot", "n2")
        # Inside the hysteresis band: still active (dedup, no emission).
        engine.observe("hot", "n1", 9.0, t=1.0)
        assert engine.is_active("hot", "n1")
        engine.observe("hot", "n1", 7.9, t=2.0)
        assert not engine.is_active("hot", "n1")

    def test_below_direction_mirrors(self):
        rule = AlertRule(
            name="reserve", threshold=120.0, direction="below",
            clear_margin=60.0, severity="critical",
        )
        engine = engine_with(rule)
        assert engine.observe("reserve", "n1", 300.0, t=0.0) is None
        assert engine.observe("reserve", "n1", 90.0, t=1.0) is not None
        # Must exceed threshold + margin to clear.
        assert engine.observe("reserve", "n1", 150.0, t=2.0) is None
        cleared = engine.observe("reserve", "n1", 181.0, t=3.0)
        assert cleared is not None and cleared.cleared

    def test_refire_after_clear(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        engine.observe("hot", "n1", 0.0, t=1.0)
        again = engine.observe("hot", "n1", 12.0, t=2.0)
        assert again is not None and not again.cleared
        assert len(engine.fired("hot")) == 2

    def test_per_call_threshold_override(self):
        engine = engine_with(ABOVE)
        event = engine.observe("hot", "n1", 6.0, t=0.0, threshold=5.0)
        assert event is not None and event.threshold == 5.0


class TestDedup:
    def test_active_alert_fires_once_by_default(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        for t in range(1, 50):
            assert engine.observe("hot", "n1", 11.0 + t, t=float(t)) is None
        assert len(engine.fired("hot")) == 1

    def test_renotify_interval(self):
        rule = replace(ABOVE, renotify_s=10.0)
        engine = engine_with(rule)
        engine.observe("hot", "n1", 11.0, t=0.0)
        assert engine.observe("hot", "n1", 11.0, t=5.0) is None
        assert engine.observe("hot", "n1", 11.0, t=10.0) is not None
        assert len(engine.fired("hot")) == 2

    def test_keys_are_independent(self):
        engine = engine_with(ABOVE)
        assert engine.observe("hot", "n1", 11.0, t=0.0) is not None
        assert engine.observe("hot", "n2", 11.0, t=0.0) is not None
        assert len(engine.active()) == 2


class TestSeverityOrdering:
    def test_active_sorted_most_severe_first(self):
        engine = engine_with(
            AlertRule(name="a_info", severity="info", threshold=1.0),
            AlertRule(name="b_crit", severity="critical", threshold=1.0),
            AlertRule(name="c_warn", severity="warning", threshold=1.0),
        )
        for name in ("a_info", "b_crit", "c_warn"):
            engine.observe(name, "n1", 2.0, t=0.0)
        severities = [a.rule.severity for a in engine.active()]
        assert severities == ["critical", "warning", "info"]


class TestRateRules:
    RAMP = AlertRule(
        name="ramp", kind="rate", threshold=1.0, direction="above",
        window_s=10.0,
    )

    def test_first_sample_never_fires(self):
        engine = engine_with(self.RAMP)
        assert engine.observe("ramp", "n1", 100.0, t=0.0) is None

    def test_fast_ramp_fires_slow_does_not(self):
        engine = engine_with(self.RAMP)
        engine.observe("ramp", "n1", 0.0, t=0.0)
        # 5 units over 2 s = 2.5/s > 1/s.
        event = engine.observe("ramp", "n1", 5.0, t=2.0)
        assert event is not None and event.value == pytest.approx(2.5)
        engine.reset()
        engine.observe("ramp", "n1", 0.0, t=0.0)
        assert engine.observe("ramp", "n1", 5.0, t=10.0) is None

    def test_window_trims_old_samples(self):
        engine = engine_with(self.RAMP)
        # A spike long ago must not keep the rate high forever.
        engine.observe("ramp", "n1", 0.0, t=0.0)
        engine.observe("ramp", "n1", 30.0, t=1.0)  # fires
        for t in range(12, 40):
            event = engine.observe("ramp", "n1", 30.0, t=float(t))
        # Flat for > window_s: the rate is ~0 now (alert cleared by then).
        assert engine.active() == []


class TestFleetRules:
    FLEET = AlertRule(
        name="regression", kind="fleet", fleet_factor=2.0, min_value=0.1,
    )

    def test_observe_records_only(self):
        engine = engine_with(self.FLEET)
        assert engine.observe("regression", "n1", 5.0, t=0.0) is None
        assert engine.fired() == []

    def test_outlier_fires_against_median(self):
        engine = engine_with(self.FLEET)
        for key, value in (("n1", 1.0), ("n2", 1.2), ("n3", 5.0)):
            engine.observe("regression", key, value, t=0.0)
        events = engine.evaluate_fleet("regression", t=0.0)
        assert [e.node for e in events] == ["n3"]

    def test_needs_two_keys(self):
        engine = engine_with(self.FLEET)
        engine.observe("regression", "n1", 99.0, t=0.0)
        assert engine.evaluate_fleet("regression", t=0.0) == []

    def test_min_value_floor_suppresses_noise(self):
        engine = engine_with(self.FLEET)
        # All tiny: 3x the median is still under min_value -> no alert.
        for key, value in (("n1", 1e-9), ("n2", 1e-9), ("n3", 3e-9)):
            engine.observe("regression", key, value, t=0.0)
        assert engine.evaluate_fleet("regression", t=0.0) == []

    def test_threshold_rule_rejects_fleet_evaluation(self):
        engine = engine_with(ABOVE)
        with pytest.raises(ConfigurationError):
            engine.evaluate_fleet("hot", t=0.0)


class TestBusIntegration:
    def test_fired_alerts_reach_the_bus(self):
        bus = TraceBus()
        sink = bus.add_sink(MemorySink())
        engine = AlertEngine([ABOVE], bus=bus)
        engine.enabled = True
        engine.observe("hot", "n1", 11.0, t=3.0)
        assert [e.kind for e in sink.events] == ["alert"]
        event = sink.events[0]
        assert event.rule == "hot" and event.t == 3.0 and not event.cleared

    def test_no_bus_records_history_only(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        assert len(engine.history) == 1


class TestDefaultRules:
    def test_names_are_unique_and_expected(self):
        rules = default_rules()
        names = {r.name for r in rules}
        assert len(names) == len(rules)
        assert {
            "ddt_window_breach",
            "dr_reserve_exhaustion",
            "soc_floor_violation",
            "aging_speed_regression",
            "cache_miss_storm",
        } <= names

    def test_watchdog_thresholds_mirror_slowdown_config(self):
        from repro.core.slowdown import SlowdownConfig

        by_name = {r.name: r for r in default_rules()}
        cfg = SlowdownConfig()
        assert by_name["ddt_window_breach"].threshold == cfg.ddt_threshold
        assert (
            by_name["dr_reserve_exhaustion"].threshold
            == cfg.reserve_seconds_threshold
        )
        assert by_name["soc_floor_violation"].threshold == cfg.protected_soc

    def test_enable_observability_arms_the_process_engine(self):
        from repro.obs import enable_observability

        assert not ALERTS.enabled
        enable_observability()
        try:
            assert ALERTS.enabled
            assert {r.name for r in default_rules()} <= {
                r.name for r in ALERTS.rules
            }
        finally:
            disable_observability()
        assert not ALERTS.enabled
        assert ALERTS.history == []

    def test_unknown_rule_name_raises(self):
        engine = engine_with(ABOVE)
        with pytest.raises(ConfigurationError):
            engine.observe("nope", "n1", 1.0, t=0.0)


class TestResetSemantics:
    def test_reset_keeps_rules_and_enabled(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        engine.reset()
        assert engine.enabled and engine.rules
        assert engine.history == [] and engine.active() == []

    def test_renotify_inf_default(self):
        assert ABOVE.renotify_s == math.inf

    def test_reset_episodes_keeps_history(self):
        engine = engine_with(ABOVE)
        engine.observe("hot", "n1", 11.0, t=0.0)
        fired = list(engine.history)
        engine.reset_episodes()
        assert engine.history == fired
        assert engine.active() == [] and engine.rules
        # A fresh breach opens a new episode instead of deduplicating.
        engine.observe("hot", "n1", 12.0, t=1.0)
        assert len(engine.history) == 2


class TestEpisodesPerRun:
    """A run starts with no open alert episodes: the ones the previous
    serial cell left active must not clear inside the next cell."""

    def test_serial_campaign_attributes_alerts_to_their_own_cell(self, tmp_path):
        from collections import Counter

        from repro.campaign import RunSpec, run_campaign
        from repro.obs import enable_observability, iter_events
        from repro.sim.scenario import Scenario
        from repro.solar.weather import DayClass

        scenario = Scenario(n_nodes=6)
        trace = scenario.trace_generator().days([DayClass.RAINY])
        specs = [
            RunSpec(scenario=scenario, trace=trace, policy=name)
            for name in ("baat-s", "baat")
        ]
        path = tmp_path / "trace.jsonl"
        enable_observability(str(path))
        try:
            run_campaign(specs, n_workers=1, cache=None, retries=0)
        finally:
            disable_observability()

        cells = []
        for event in iter_events(str(path)):
            if event.kind == "run_start":
                cells.append((event.policy, Counter(), Counter()))
            elif event.kind == "alert":
                _, fired, cleared = cells[-1]
                (cleared if event.cleared else fired)[(event.rule, event.node)] += 1
        assert [policy for policy, _, _ in cells] == ["baat-s", "baat"]
        # The first cell ends with episodes still open (what used to leak).
        _, fired, cleared = cells[0]
        assert sum(fired.values()) > sum(cleared.values())
        for policy, fired, cleared in cells:
            # Every clear closes an episode its own cell opened.
            for key, n in cleared.items():
                assert n <= fired[key], (policy, key)
