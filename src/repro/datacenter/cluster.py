"""Cluster: the set of nodes plus VM placement bookkeeping.

Provides the operations BAAT's schemes need: enumerate nodes with their
aging metrics, place a VM on a chosen node, migrate a VM between nodes
(with the stop-and-copy overhead modelled in :mod:`repro.datacenter.vm`),
and aggregate cluster-level statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.errors import ConfigurationError, MigrationError, SchedulingError
from repro.obs import BUS, REGISTRY
from repro.obs.events import VMMigratedEvent, VMPlacedEvent
from repro.obs.spans import SPANS

#: A server saturates when hosted VMs' mean utilisation exceeds this; used
#: as the CPU resource constraint for *placement* feasibility.
CPU_HEADROOM_LIMIT = 1.0

#: Migration may overcommit up to this limit: consolidated VMs time-share
#: the CPU (the engine models the contention slowdown), which is how BAAT
#: packs work onto fewer servers during supply shortfalls.
MIGRATION_HEADROOM_LIMIT = 1.6


class Cluster:
    """Nodes plus the VM registry."""

    def __init__(self, nodes: Sequence[Node]):
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique")
        self.nodes: List[Node] = list(nodes)
        self._by_name: Dict[str, Node] = {n.name: n for n in nodes}
        self.vms: Dict[str, VM] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Fetch a node by name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise ConfigurationError(f"unknown node {name!r}") from exc

    def vm(self, name: str) -> VM:
        """Fetch a VM by name."""
        try:
            return self.vms[name]
        except KeyError as exc:
            raise ConfigurationError(f"unknown VM {name!r}") from exc

    def vms_on(self, node_name: str) -> List[VM]:
        """All VMs currently hosted on a node."""
        return list(self.node(node_name).server.vms)

    # ------------------------------------------------------------------
    # Placement / migration
    # ------------------------------------------------------------------
    def place(self, vm: VM, node_name: str) -> None:
        """Place an unhosted VM on a node."""
        if vm.name in self.vms and vm.host is not None:
            raise SchedulingError(f"VM {vm.name} is already placed on {vm.host}")
        node = self.node(node_name)
        if not self._fits(node, vm):
            raise SchedulingError(
                f"node {node_name} lacks CPU headroom for VM {vm.name}"
            )
        node.server.attach(vm)
        self.vms[vm.name] = vm
        if BUS.enabled:
            BUS.emit(VMPlacedEvent(t=BUS.now, vm=vm.name, node=node_name))
        if REGISTRY.enabled:
            REGISTRY.counter("cluster/placements").inc()

    def migrate(self, vm_name: str, destination: str) -> None:
        """Live-migrate a VM; raises :class:`MigrationError` on infeasible
        moves (pinned VM, unknown destination, no headroom)."""
        vm = self.vm(vm_name)
        if vm.host is None:
            raise MigrationError(f"VM {vm_name} is not placed")
        dst = self.node(destination)
        if not dst.is_up:
            raise MigrationError(f"destination {destination} is down")
        if not self._fits(dst, vm, limit=MIGRATION_HEADROOM_LIMIT):
            raise MigrationError(f"destination {destination} lacks headroom")
        src = self.node(vm.host)
        vm.begin_migration(destination)  # validates pinning / same-host
        src.server.detach(vm)
        dst.server.attach(vm)
        # Receiving work wakes a consolidation-parked server — which
        # ends its parked interval (silent un-park, no WakeEvent).
        if dst.server.policy_off:
            SPANS.end("parked", node=destination)
        dst.server.policy_off = False
        if BUS.enabled:
            BUS.emit(
                VMMigratedEvent(
                    t=BUS.now, vm=vm_name, source=src.name, dest=destination
                )
            )
        if REGISTRY.enabled:
            REGISTRY.counter("cluster/migrations").inc()

    def can_migrate(self, vm_name: str, destination: str) -> bool:
        """Feasibility check mirroring :meth:`migrate` without side effects."""
        vm = self.vms.get(vm_name)
        if vm is None or vm.pinned or vm.host is None or vm.host == destination:
            return False
        dst = self._by_name.get(destination)
        if dst is None or not dst.is_up:
            return False
        return self._fits(dst, vm, limit=MIGRATION_HEADROOM_LIMIT)

    def _fits(self, node: Node, vm: VM, limit: float = CPU_HEADROOM_LIMIT) -> bool:
        """CPU headroom check: mean utilisations must stay under ``limit``."""
        load = sum(v.workload.mean_util for v in node.server.vms)
        return load + vm.workload.mean_util <= limit + 1e-9

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_progress(self) -> float:
        """Sum of all VM progress counters (the Fig. 20 throughput proxy)."""
        return sum(vm.progress for vm in self.vms.values())

    def up_nodes(self) -> List[Node]:
        """Nodes currently serving load."""
        return [n for n in self.nodes if n.is_up]

    def __iter__(self) -> Iterable[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
