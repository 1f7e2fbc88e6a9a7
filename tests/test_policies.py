"""Unit tests for the Table-4 policies and factory."""

import pytest

from repro.core.policies import (
    BAATHidingPolicy,
    BAATPolicy,
    BAATSlowdownPolicy,
    EBuffPolicy,
    PlannedAgingPolicy,
    POLICY_NAMES,
    make_policy,
)
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS, WorkloadProfile
from repro.errors import ConfigurationError


@pytest.fixture
def cluster():
    return Cluster([Node.build(f"node{i}") for i in range(3)])


def light_vm(name):
    profile = WorkloadProfile(
        name=f"wl-{name}", mean_util=0.3, burst_util=0.0, period_s=3600.0,
        burstiness=0.0,
    )
    return VM(name=name, workload=profile)


class TestFactory:
    def test_table4_names(self):
        assert POLICY_NAMES == ("e-buff", "baat-s", "baat-h", "baat")

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("e-buff", EBuffPolicy),
            ("baat-s", BAATSlowdownPolicy),
            ("baat-h", BAATHidingPolicy),
            ("baat", BAATPolicy),
            ("baat-planned", PlannedAgingPolicy),
        ],
    )
    def test_builds_correct_class(self, name, cls):
        policy = make_policy(name)
        assert isinstance(policy, cls)
        assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("yolo")

    def test_descriptions_nonempty(self):
        for name in POLICY_NAMES:
            assert make_policy(name).describe()


class TestBinding:
    def test_unbound_policy_refuses_work(self):
        with pytest.raises(ConfigurationError):
            EBuffPolicy().place_vm(light_vm("a"))

    def test_bind_builds_controller_and_scheduler(self, cluster):
        policy = make_policy("baat")
        policy.bind(cluster)
        assert policy.controller is not None
        assert policy.scheduler is not None
        assert policy.monitor is not None

    def test_baat_s_monitor_is_dvfs_only(self, cluster):
        policy = make_policy("baat-s")
        policy.bind(cluster)
        assert policy.monitor.config.prefer_migration is False
        assert policy.monitor.config.allow_parking is False

    def test_baat_monitor_prefers_migration(self, cluster):
        policy = make_policy("baat")
        policy.bind(cluster)
        assert policy.monitor.config.prefer_migration is True
        assert policy.monitor.config.allow_parking is True


class TestPlacementStyles:
    def test_ebuff_places_naively(self, cluster):
        policy = make_policy("e-buff")
        policy.bind(cluster)
        # Stress node0's battery; e-Buff must not care.
        for _ in range(16):
            cluster.node("node0").battery.discharge(120.0, 900.0)
            cluster.node("node0").observe_battery(900.0)
        assert policy.place_vm(light_vm("a")) == "node0"

    def test_baat_places_aging_aware(self, cluster):
        policy = make_policy("baat")
        policy.bind(cluster)
        for _ in range(16):
            cluster.node("node0").battery.discharge(120.0, 900.0)
            cluster.node("node0").observe_battery(900.0)
        assert policy.place_vm(light_vm("a")) != "node0"

    def test_baat_h_places_by_nat(self, cluster):
        policy = make_policy("baat-h")
        policy.bind(cluster)
        for _ in range(16):
            cluster.node("node1").battery.discharge(120.0, 900.0)
            cluster.node("node1").observe_battery(900.0)
        assert policy.place_vm(light_vm("a")) != "node1"


class TestControlBehaviour:
    def test_ebuff_control_is_inert(self, cluster, control_pass):
        policy = make_policy("e-buff")
        policy.bind(cluster)
        for node in cluster:
            node.battery._soc = 0.2
            node.battery._last_current = 8.0
        assert control_pass(policy, 0.0) is True
        for node in cluster:
            assert node.server.frequency == 1.0
            assert node.discharge_cap_w == float("inf")

    def test_baat_s_throttles_stressed_node(self, cluster, control_pass):
        policy = make_policy("baat-s")
        policy.bind(cluster)
        node = cluster.node("node0")
        node.battery._soc = 0.3
        for n in cluster:
            n.battery._last_current = 12.0  # ~150 W
        control_pass(policy, 12 * 3600.0)
        assert node.server.frequency < 1.0
        assert all(n.server.frequency == 1.0 for n in cluster if n is not node)

    def test_baat_h_migrates_off_imbalanced_node(self, cluster, control_pass):
        policy = make_policy("baat-h")
        policy.bind(cluster)
        vm = light_vm("a")
        cluster.place(vm, "node0")
        # Create a NAT imbalance on node0.
        for _ in range(16):
            cluster.node("node0").battery.discharge(120.0, 900.0)
            cluster.node("node0").observe_battery(900.0)
        control_pass(policy, 3600.0)
        assert vm.host != "node0"
        assert policy.migrations == 1

    def test_planned_policy_overrides_thresholds(self, cluster):
        policy = PlannedAgingPolicy(service_life_days=200.0)
        policy.bind(cluster)
        assert policy.monitor is not None
        for node in cluster:
            assert node.name in policy.monitor.low_soc_override
        goals = policy.current_goals()
        assert all(0.1 <= g <= 0.9 for g in goals.values())

    def test_planned_fixed_goal(self, cluster):
        policy = PlannedAgingPolicy(service_life_days=200.0, fixed_dod_goal=0.5)
        policy.bind(cluster)
        for node in cluster:
            assert policy.monitor.low_soc_override[node.name] == pytest.approx(0.5)


class TestConsolidation:
    def test_consolidation_parks_under_stress(self, cluster, control_pass):
        policy = make_policy("baat")
        policy.bind(cluster)
        for node in cluster:
            cluster.place(light_vm(f"vm-{node.name}"), node.name)
            node.battery._soc = 0.35
            node.battery._last_current = 8.0
        # Tiny solar late in the day: the cluster is over-committed.
        control_pass(policy, 16 * 3600.0, solar_w=50.0)
        parked = [n for n in cluster if n.server.policy_off]
        assert parked  # at least one server parked
        for node in parked:
            assert node.discharge_cap_w == 0.0

    def test_wake_on_solar_headroom(self, cluster, control_pass):
        policy = make_policy("baat")
        policy.bind(cluster)
        cluster.node("node2").server.policy_off = True
        control_pass(policy, 12 * 3600.0, solar_w=5000.0)
        assert not cluster.node("node2").server.policy_off
