"""Datacenter substrate: servers, VMs, workloads, and power routing.

Models the compute side of the paper's prototype — six virtualised servers
(three IBM x330, three HP ProLiant class) running HiBench and CloudSuite
workloads under Xen — at the fidelity BAAT actually consumes: per-server
power draw (with DVFS), per-VM progress accounting, VM migration with
overhead, and the per-node power path that routes solar, battery, and
(optional) utility power.
"""

from repro.datacenter.server import Server, ServerParams, ServerPowerState
from repro.datacenter.vm import VM, MIGRATION_SECONDS
from repro.datacenter.workloads import (
    WorkloadProfile,
    PAPER_WORKLOADS,
)
from repro.datacenter.node import Node
from repro.datacenter.cluster import Cluster
from repro.datacenter.power_path import PowerPath, PowerFlows

__all__ = [
    "Server",
    "ServerParams",
    "ServerPowerState",
    "VM",
    "MIGRATION_SECONDS",
    "WorkloadProfile",
    "PAPER_WORKLOADS",
    "Node",
    "Cluster",
    "PowerPath",
    "PowerFlows",
]
