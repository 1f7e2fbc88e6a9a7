"""Unit tests for Node plumbing and SimResult edge cases."""

import math

import pytest

from repro.datacenter.node import Node
from repro.metrics.snapshot import AgingMetrics
from repro.metrics.accumulator import MetricsAccumulator
from repro.sim.results import NodeResult, SimResult


def neutral_metrics():
    return AgingMetrics.from_accumulator(MetricsAccumulator(), 13300.0, 1.75)


def node_result(name="n0", fade_start=0.0, fade_end=0.01, **overrides):
    base = dict(
        name=name,
        fade_start=fade_start,
        fade_end=fade_end,
        discharged_ah=10.0,
        charged_ah=11.0,
        metrics=neutral_metrics(),
        downtime_s=0.0,
        low_soc_time_s=0.0,
        soc_distribution={f"SoC{i}": 0.0 for i in range(1, 8)},
        final_soc=0.9,
    )
    base.update(overrides)
    return NodeResult(**base)


class TestNode:
    def test_build_wires_names(self):
        node = Node.build("alpha")
        assert node.server.name == "alpha"
        assert node.battery.name == "alpha/battery"
        assert node.tracker.name == "alpha/battery"

    def test_default_cap_is_uncapped(self):
        assert Node.build("n").discharge_cap_w == math.inf

    def test_observe_battery_records_sample(self):
        node = Node.build("n")
        node.battery.discharge(50.0, 60.0)
        node.observe_battery(60.0)
        lifetime = node.tracker.lifetime()
        assert lifetime.discharged_ah > 0.0

    def test_observe_battery_hands_out_the_sensor_sample(self, monkeypatch):
        """The tracker and the telemetry frame get exactly the battery's
        ``(soc, last_current_a)`` after each step."""
        from repro.obs import BUS
        from repro.obs.telemetry import TELEMETRY

        node = Node.build("n")
        seen = {"tracker": [], "telemetry": []}
        tracker_observe = node.tracker.observe

        def observe(soc, current, dt):
            seen["tracker"].append((soc, current))
            tracker_observe(soc, current, dt)

        monkeypatch.setattr(node.tracker, "observe", observe)
        monkeypatch.setattr(
            TELEMETRY,
            "record_sample",
            lambda t, name, soc, current, dt: seen["telemetry"].append((soc, current)),
        )
        battery = node.battery
        steps = [
            lambda: battery.discharge(40.0, 60.0),
            lambda: battery.discharge(40.0, 60.0),
            lambda: battery.rest(60.0),
            lambda: battery.charge(40.0, 60.0),
            lambda: battery.charge(40.0, 60.0),
            lambda: battery.rest(60.0),
        ]
        expected = []
        with BUS.capture():
            for step in steps:
                step()
                node.observe_battery(60.0)
                expected.append((battery.soc, battery.last_current_a))
        assert seen["tracker"] == expected
        assert seen["telemetry"] == expected
        assert {(current > 0, current < 0) for _, current in expected} == {
            (True, False), (False, True), (False, False)
        }

    def test_is_up_reflects_server_state(self):
        node = Node.build("n")
        assert node.is_up
        node.server.brownout()
        assert not node.is_up


class TestNodeResult:
    def test_fade_added(self):
        nr = node_result(fade_start=0.05, fade_end=0.08)
        assert nr.fade_added == pytest.approx(0.03)

    def test_damage_per_day(self):
        nr = node_result(fade_start=0.0, fade_end=0.02)
        assert nr.damage_per_day(2 * 86400.0) == pytest.approx(0.01)

    def test_damage_per_day_zero_duration(self):
        assert node_result().damage_per_day(0.0) == 0.0


class TestSimResult:
    def _result(self, nodes, duration_s=86400.0):
        return SimResult(
            policy_name="t",
            duration_s=duration_s,
            throughput=100.0,
            nodes=nodes,
            total_downtime_s=0.0,
            migrations=0,
            dvfs_transitions=0,
            unserved_wh=0.0,
            feedback_wh=0.0,
        )

    def test_worst_node_by_fade(self):
        result = self._result(
            [node_result("a", fade_end=0.01), node_result("b", fade_end=0.05)]
        )
        assert result.worst_node().name == "b"

    def test_worst_node_by_ah(self):
        result = self._result(
            [
                node_result("a", discharged_ah=5.0),
                node_result("b", discharged_ah=25.0),
            ]
        )
        assert result.worst_node_by_throughput_ah().name == "b"

    def test_mean_fade(self):
        result = self._result(
            [node_result("a", fade_end=0.01), node_result("b", fade_end=0.03)]
        )
        # Over the one-day run the mean fade rate is the mean fade added.
        assert result.mean_damage_per_day() == pytest.approx(0.02)

    def test_low_soc_fraction(self):
        result = self._result(
            [node_result("a", low_soc_time_s=43200.0), node_result("b")]
        )
        assert result.worst_low_soc_fraction() == pytest.approx(0.5)

    def test_zero_duration_guards(self):
        result = self._result([node_result("a")], duration_s=0.0)
        assert result.worst_low_soc_fraction() == 0.0
        assert result.throughput_per_day() == 0.0
