"""Property-based tests for the control layer (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.core.controller import BAATController
from repro.core.planner import DOD_MAX, DOD_MIN, dod_goal
from repro.core.slowdown import SlowdownConfig, SlowdownMonitor
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.sim.fleet import FleetState
from tests.test_slowdown import reserve_seconds

PARAMS = BatteryParams()


def monitor_with_soc(soc: float):
    battery = BatteryUnit(PARAMS, initial_soc=soc)
    node = Node.build("n0", battery=battery)
    cluster = Cluster([node])
    controller = BAATController(cluster)
    return node, SlowdownMonitor(cluster, controller, config=SlowdownConfig())


class TestSlowdownProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        soc=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=86400.0),
    )
    def test_ration_nonnegative_and_bounded(self, soc, t):
        node, monitor = monitor_with_soc(soc)
        ration = monitor._ration_w(node, t)
        assert ration >= 0.0
        assert math.isfinite(ration)

    @settings(max_examples=60, deadline=None)
    @given(soc=st.floats(min_value=0.0, max_value=1.0))
    def test_protected_floor_in_valid_band(self, soc):
        node, monitor = monitor_with_soc(soc)
        floor = monitor.protected_floor(node)
        assert PARAMS.cutoff_soc < floor < 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        soc=st.floats(min_value=0.0, max_value=1.0),
        power=st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_reserve_seconds_nonnegative(self, soc, power):
        battery = BatteryUnit(PARAMS, initial_soc=soc)
        assert reserve_seconds(battery, power) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        soc=st.floats(min_value=0.0, max_value=1.0),
        draw=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_check_never_fires_above_threshold(self, soc, draw):
        node, monitor = monitor_with_soc(soc)
        if soc >= monitor.low_soc_threshold(node):
            node.battery._last_current = draw / 12.0
            monitor.fleet_control(43200.0, FleetState(monitor.cluster))
            assert monitor.first_action_t is None


class TestPlannerProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        total=st.floats(min_value=100.0, max_value=50_000.0),
        used_frac=st.floats(min_value=0.0, max_value=1.0),
        cycles=st.floats(min_value=1.0, max_value=10_000.0),
        cap=st.floats(min_value=5.0, max_value=200.0),
    )
    def test_dod_goal_always_in_band(self, total, used_frac, cycles, cap):
        goal = dod_goal(total, used_frac * total, cycles, cap)
        assert DOD_MIN <= goal <= DOD_MAX

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.floats(min_value=1000.0, max_value=50_000.0),
        cycles_a=st.floats(min_value=1.0, max_value=5_000.0),
        cycles_b=st.floats(min_value=1.0, max_value=5_000.0),
    )
    def test_dod_goal_antitone_in_cycles(self, total, cycles_a, cycles_b):
        lo, hi = min(cycles_a, cycles_b), max(cycles_a, cycles_b)
        assert dod_goal(total, 0.0, lo, 35.0) >= dod_goal(total, 0.0, hi, 35.0)

    @settings(max_examples=60, deadline=None)
    @given(
        used_a=st.floats(min_value=0.0, max_value=13_000.0),
        used_b=st.floats(min_value=0.0, max_value=13_000.0),
    )
    def test_dod_goal_antitone_in_consumption(self, used_a, used_b):
        lo, hi = min(used_a, used_b), max(used_a, used_b)
        assert dod_goal(13_300.0, lo, 500.0, 35.0) >= dod_goal(
            13_300.0, hi, 500.0, 35.0
        )
