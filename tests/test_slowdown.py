"""Unit tests for the slowdown monitor (Fig. 9)."""

import math

import numpy as np
import pytest

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.core.controller import BAATController
from repro.core.scheduler import AgingHidingScheduler
from repro.core.slowdown import SlowdownConfig, SlowdownMonitor
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import WorkloadProfile
from repro.errors import ConfigurationError
from repro.obs import BUS
from repro.sim.fleet import FleetState
from repro.units import hours


def make_monitor(n=3, prefer_migration=True, allow_parking=True, socs=None):
    nodes = []
    for i in range(n):
        soc = socs[i] if socs else 1.0
        battery = BatteryUnit(BatteryParams(), name=f"b{i}", initial_soc=soc)
        nodes.append(Node.build(f"node{i}", battery=battery))
    cluster = Cluster(nodes)
    controller = BAATController(cluster)
    scheduler = AgingHidingScheduler(cluster, controller)
    config = SlowdownConfig(
        prefer_migration=prefer_migration, allow_parking=allow_parking
    )
    return cluster, SlowdownMonitor(cluster, controller, scheduler, config)


def run_pass(monitor, t, currents=None):
    """One monitoring pass on a fresh capture of the monitor's cluster,
    each battery's last current set from ``currents`` (A) first; the
    (node, trigger) of every slowdown action it took."""
    for node, amps in zip(monitor.cluster, currents or ()):
        node.battery._last_current = amps
    with BUS.capture() as sink:
        monitor.fleet_control(t, FleetState(monitor.cluster))
    return [(e.node, e.trigger) for e in sink.events if e.kind == "slowdown_action"]


def reserve_seconds(battery, power_w):
    """The monitor's reserve kernel for one battery drawing ``power_w``."""
    cluster = Cluster([Node.build("n0", battery=battery)])
    monitor = SlowdownMonitor(cluster, BAATController(cluster))
    fleet = FleetState(cluster)
    der = fleet.derived_now()
    voltage = fleet.ocv(fleet.soc, der)
    # A vanishing draw's reserve overflows to inf.
    with np.errstate(over="ignore"):
        reserve = monitor._reserve_seconds_array(
            fleet, np.arange(1), np.array([power_w]), voltage, der
        )
    return float(reserve[0])


def steady_vm(name, util=0.5):
    profile = WorkloadProfile(
        name=f"wl-{name}", mean_util=util, burst_util=0.0, period_s=3600.0,
        burstiness=0.0,
    )
    return VM(name=name, workload=profile)


class TestReserveHelpers:
    def test_reserve_infinite_at_zero_draw(self, battery):
        assert reserve_seconds(battery, 0.0) == math.inf

    def test_reserve_shrinks_with_power(self, battery):
        assert reserve_seconds(battery, 400.0) < reserve_seconds(battery, 100.0)

    def test_reserve_zero_at_cutoff(self, params):
        empty = BatteryUnit(params, initial_soc=params.cutoff_soc)
        assert reserve_seconds(empty, 100.0) == 0.0



class TestConfig:
    def test_recovery_above_threshold_enforced(self):
        with pytest.raises(ConfigurationError):
            SlowdownConfig(low_soc_threshold=0.5, recovery_soc=0.4)

    def test_protected_below_threshold_enforced(self):
        with pytest.raises(ConfigurationError):
            SlowdownConfig(low_soc_threshold=0.3, protected_soc=0.35)


class TestTrigger:
    def test_no_trigger_above_threshold(self):
        _, monitor = make_monitor(socs=[0.8, 0.8, 0.8])
        assert run_pass(monitor, hours(12), currents=[8.0] * 3) == []

    def test_triggers_on_thin_reserve(self):
        _, monitor = make_monitor(socs=[0.15, 0.8, 0.8])
        # A draw large enough to empty the remaining charge in < 2 min;
        # the reserve check comes before the ration check.
        assert run_pass(monitor, hours(12), currents=[40.0, 0.0, 0.0]) == [
            ("node0", "dr")
        ]

    def test_triggers_on_unsustainable_ration(self):
        _, monitor = make_monitor(socs=[0.35, 0.8, 0.8])
        # ~150 W late in the window.
        assert run_pass(monitor, hours(17.0), currents=[12.0, 0.0, 0.0]) == [
            ("node0", "ration")
        ]

    def test_planned_override_moves_threshold(self):
        cluster, monitor = make_monitor(socs=[0.35, 0.8, 0.8])
        monitor.low_soc_override[cluster.nodes[0].name] = 0.2
        assert run_pass(monitor, hours(17.0), currents=[12.0, 0.0, 0.0]) == []


class TestActions:
    def test_migration_preferred_to_healthier_node(self):
        cluster, monitor = make_monitor(socs=[0.3, 0.9, 0.9])
        vm = steady_vm("a")
        cluster.place(vm, "node0")
        action = monitor.act(cluster.nodes[0], t=hours(12))
        assert action == "migrated"
        assert vm.host in ("node1", "node2")
        assert monitor.migrations == 1

    def test_migration_skipped_without_soc_margin(self):
        """Equal-stress nodes: migration is pointless churn; throttle."""
        cluster, monitor = make_monitor(socs=[0.3, 0.32, 0.31])
        vm = steady_vm("a")
        cluster.place(vm, "node0")
        action = monitor.act(cluster.nodes[0], t=hours(12))
        assert action == "throttled"
        assert vm.host == "node0"

    def test_dvfs_fallback_without_scheduler(self):
        cluster, monitor = make_monitor(prefer_migration=False, socs=[0.3, 0.9, 0.9])
        cluster.place(steady_vm("a"), "node0")
        action = monitor.act(cluster.nodes[0], t=hours(12))
        assert action == "throttled"
        assert cluster.nodes[0].server.frequency < 1.0

    def test_park_when_ladder_exhausted_and_idle_unsustainable(self):
        cluster, monitor = make_monitor(socs=[0.30, 0.31, 0.30])
        node = cluster.nodes[0]
        node.server.set_freq_index(len(node.server.params.freq_levels) - 1)
        action = monitor.act(node, t=hours(17.5))
        assert action == "parked"
        assert node.server.policy_off
        assert node.discharge_cap_w == 0.0

    def test_no_parking_for_dvfs_only_monitor(self):
        cluster, monitor = make_monitor(allow_parking=False, socs=[0.3, 0.3, 0.3])
        node = cluster.nodes[0]
        node.server.set_freq_index(len(node.server.params.freq_levels) - 1)
        action = monitor.act(node, t=hours(17.5))
        assert action == "capped"
        assert not node.server.policy_off
        # The idle-floor keeps the server eating.
        assert node.discharge_cap_w >= node.server.params.idle_w

    def test_recover_releases_throttle_gradually(self):
        cluster, monitor = make_monitor(socs=[0.8, 0.8, 0.8])
        node = cluster.nodes[0]
        node.server.set_freq_index(2)
        node.discharge_cap_w = 50.0
        run_pass(monitor, hours(12))
        assert node.server.freq_index == 1
        assert node.discharge_cap_w == math.inf
        run_pass(monitor, hours(12))
        assert node.server.freq_index == 0

    def test_recover_does_not_wake_parked(self):
        cluster, monitor = make_monitor(socs=[0.9, 0.9, 0.9])
        node = cluster.nodes[0]
        node.server.policy_off = True
        node.discharge_cap_w = 0.0
        run_pass(monitor, hours(12))
        assert node.server.policy_off
        assert node.discharge_cap_w == 0.0


class TestControlLoop:
    def test_control_acts_only_on_triggered_nodes(self):
        cluster, monitor = make_monitor(socs=[0.2, 0.9, 0.9])
        for node in cluster:
            cluster.place(steady_vm(f"vm-{node.name}"), node.name)
        actions = run_pass(monitor, hours(12), currents=[10.0] * 3)  # ~120 W
        assert [node for node, _ in actions] == ["node0"]

    def test_control_recovers_healthy_nodes(self):
        cluster, monitor = make_monitor(socs=[0.9, 0.9, 0.9])
        node = cluster.nodes[0]
        node.server.set_freq_index(1)
        run_pass(monitor, hours(12))
        assert node.server.freq_index == 0


class TestAlertObservation:
    def test_non_threshold_floor_rule_observes_every_eligible_node(self):
        """A floor rule of any kind but ``threshold`` may change state on
        any observation, so the pass observes every up, unparked node."""
        from repro.obs import ALERTS
        from repro.obs.alerts import AlertRule, default_rules

        cluster, monitor = make_monitor(socs=[0.9, 0.9, 0.9])
        cluster.nodes[1].server.policy_off = True
        ALERTS.reset()
        ALERTS.add_rule(
            AlertRule(
                name="soc_floor_violation",
                kind="rate",
                threshold=-1.0,
                direction="below",
                window_s=3600.0,
            )
        )
        ALERTS.enabled = True
        try:
            run_pass(monitor, hours(12))
            observed = sorted(
                key for name, key in ALERTS._rate_hist if name == "soc_floor_violation"
            )
        finally:
            ALERTS.enabled = False
            ALERTS.reset()
            for rule in default_rules():
                ALERTS.add_rule(rule)
        assert observed == ["node0", "node2"]
