"""Unit tests for cluster placement and migration."""

import pytest

from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS, WorkloadProfile
from repro.errors import ConfigurationError, MigrationError, SchedulingError


def make_cluster(n=3):
    return Cluster([Node.build(f"node{i}") for i in range(n)])


def vm_with_util(name, util):
    profile = WorkloadProfile(
        name=f"wl-{name}", mean_util=util, burst_util=0.0, period_s=3600.0,
        burstiness=0.0,
    )
    return VM(name=name, workload=profile)


class TestConstruction:
    def test_requires_nodes(self):
        with pytest.raises(ConfigurationError):
            Cluster([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            Cluster([Node.build("a"), Node.build("a")])

    def test_lookup(self):
        cluster = make_cluster()
        assert cluster.node("node1").name == "node1"
        with pytest.raises(ConfigurationError):
            cluster.node("ghost")


class TestPlacement:
    def test_place_and_lookup(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        assert vm.host == "node0"
        assert cluster.vm("a") is vm
        assert cluster.vms_on("node0") == [vm]

    def test_double_place_rejected(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        with pytest.raises(SchedulingError):
            cluster.place(vm, "node1")

    def test_headroom_enforced(self):
        cluster = make_cluster()
        cluster.place(vm_with_util("a", 0.7), "node0")
        with pytest.raises(SchedulingError):
            cluster.place(vm_with_util("b", 0.6), "node0")


class TestMigration:
    def test_moves_between_nodes(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        cluster.migrate("a", "node1")
        assert vm.host == "node1"
        assert cluster.vms_on("node0") == []
        assert cluster.vms_on("node1") == [vm]

    def test_migration_allows_overcommit(self):
        """Migration packs beyond the placement limit (time-sharing)."""
        cluster = make_cluster()
        cluster.place(vm_with_util("a", 0.9), "node0")
        vm = vm_with_util("b", 0.6)
        cluster.place(vm, "node1")
        cluster.migrate("b", "node0")  # 1.5 total, under the 1.6 limit
        assert vm.host == "node0"

    def test_migration_overcommit_limit(self):
        cluster = make_cluster()
        cluster.place(vm_with_util("a", 0.9), "node0")
        cluster.place(vm_with_util("b", 0.9), "node1")
        with pytest.raises(MigrationError):
            cluster.migrate("b", "node0")  # 1.8 exceeds 1.6

    def test_migration_to_down_node_rejected(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        cluster.node("node1").server.brownout()
        with pytest.raises(MigrationError):
            cluster.migrate("a", "node1")

    def test_migration_wakes_parked_destination(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        cluster.node("node1").server.policy_off = True
        cluster.migrate("a", "node1")
        assert not cluster.node("node1").server.policy_off

    def test_can_migrate_mirror(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        assert cluster.can_migrate("a", "node1")
        assert not cluster.can_migrate("a", "node0")  # same host
        vm.pinned = True
        assert not cluster.can_migrate("a", "node1")


class TestAggregates:
    def test_total_progress(self):
        cluster = make_cluster()
        vm = vm_with_util("a", 0.5)
        cluster.place(vm, "node0")
        vm.progress = 123.0
        assert cluster.total_progress() == 123.0

    def test_up_nodes(self):
        cluster = make_cluster()
        cluster.node("node1").server.brownout()
        assert [n.name for n in cluster.up_nodes()] == ["node0", "node2"]
