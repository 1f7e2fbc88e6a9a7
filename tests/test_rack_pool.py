"""Tests for the rack-shared battery architecture (paper Fig. 7).

A rack-pool cell steps on :class:`~repro.sim.fleet.FleetPowerPath` with
the rack-pool routing rules; its pool's members are the nodes' own
batteries.
"""

from dataclasses import replace

import pytest

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.core.policies.factory import make_policy
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import WorkloadProfile
from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.sim.engine import Simulation
from repro.sim.fleet import FleetPowerPath
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass
from tests.test_sweep_batch import run_digest


def steady_vm(name, util):
    profile = WorkloadProfile(
        name=f"wl-{name}", mean_util=util, burst_util=0.0, period_s=3600.0,
        burstiness=0.0,
    )
    return VM(name=name, workload=profile)


def make_rack(n=3, initial_soc=1.0, socs=None, cap_factors=None, idle=False,
              params=None):
    """A rack of ``n`` nodes and its pooled power path; ``idle`` servers
    are administratively off, so they draw nothing."""
    socs = socs or [initial_soc] * n
    nodes = []
    for i, soc in enumerate(socs):
        battery = BatteryUnit(
            params or BatteryParams(),
            name=f"b{i}",
            initial_soc=soc,
            capacity_factor=cap_factors[i] if cap_factors else 1.0,
        )
        node = Node.build(f"node{i}", battery=battery)
        node.server.admin_off = idle
        nodes.append(node)
    cluster = Cluster(nodes)
    return cluster, FleetPowerPath(cluster, architecture="rack-pool")


def place(cluster, path, util, node_name):
    """Host a steady VM on ``node_name``."""
    cluster.place(steady_vm(f"vm-{node_name}", util), node_name)
    path.fleet.refresh_policy_view()


def batteries(cluster, path):
    """The rack's battery objects, current."""
    path.fleet.materialize()
    return [node.battery for node in cluster]


class TestRackRouting:
    def test_pool_bridges_aggregate_deficit(self):
        cluster, path = make_rack()
        for node in cluster:
            place(cluster, path, 0.5, node.name)
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.battery_to_load_w == pytest.approx(flows.demand_w, rel=0.02)
        assert flows.browned_out_nodes == 0

    def test_cycling_spread_across_members(self):
        """The defining property of the shared pool: one loaded server's
        draw shallow-cycles every battery instead of deep-cycling one."""
        cluster, path = make_rack()
        place(cluster, path, 0.9, "node0")
        for step in range(60):
            path.step(step * 60.0, 60.0, solar_w=0.0)
        socs = [b.soc for b in batteries(cluster, path)]
        assert max(socs) - min(socs) < 0.05
        assert all(s < 1.0 for s in socs)

    def test_surplus_charges_the_pool(self):
        cluster, path = make_rack(initial_soc=0.5)
        flows = path.step(0.0, 60.0, solar_w=2000.0)
        assert flows.solar_to_battery_w > 0.0

    def test_hungriest_loads_shed_first(self, params):
        cluster, path = make_rack(initial_soc=params.cutoff_soc)
        place(cluster, path, 0.9, "node0")
        place(cluster, path, 0.2, "node1")
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.browned_out_nodes >= 1
        assert cluster.node("node0").server.state.value == "down"

    def test_caps_limit_the_pool(self):
        cluster, path = make_rack()
        for node in cluster:
            cluster.place(steady_vm(f"vm-{node.name}", 0.5), node.name)
            node.discharge_cap_w = 5.0
        path.fleet.refresh_policy_view()
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.battery_to_load_w <= 15.0 + 1e-6

    def test_batteries_advance_every_step(self):
        cluster, path = make_rack()
        path.step(0.0, 60.0, solar_w=500.0)
        path.step(60.0, 60.0, solar_w=0.0)
        for battery in batteries(cluster, path):
            assert battery.time_s == pytest.approx(120.0)

    def test_rack_brownouts_are_counted(self, params):
        cluster, path = make_rack(initial_soc=params.cutoff_soc)
        for node, util in zip(cluster, (0.9, 0.5, 0.5)):
            place(cluster, path, util, node.name)
        REGISTRY.reset()
        REGISTRY.enabled = True
        try:
            flows = path.step(0.0, 60.0, solar_w=0.0)
            count = REGISTRY.counter("power/brownouts").value
        finally:
            REGISTRY.enabled = False
            REGISTRY.reset()
        assert flows.browned_out_nodes == 3
        assert count == 3


class TestScenarioIntegration:
    def test_architecture_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(architecture="blockchain")

    def test_rack_scenario_runs_end_to_end(self, tiny_scenario):
        scenario = replace(tiny_scenario, architecture="rack-pool", stepper="fleet")
        trace = scenario.trace_generator().day(DayClass.CLOUDY)
        sim = Simulation(scenario, make_policy("e-buff"), trace)
        assert sim.power_path.architecture == "rack-pool"
        result = sim.run()
        assert result.throughput > 0.0
        assert all(n.fade_added > 0.0 for n in result.nodes)

    def test_rack_reduces_aging_variation(self, tiny_scenario):
        """Table-1 trade-off: sharing a pool evens battery wear compared
        to per-server integration under identical weather."""
        trace = tiny_scenario.trace_generator().day(DayClass.CLOUDY)
        per_server = Simulation(
            tiny_scenario, make_policy("e-buff"), trace
        ).run()
        rack = Simulation(
            replace(tiny_scenario, architecture="rack-pool", stepper="fleet"),
            make_policy("e-buff"),
            trace,
        ).run()

        def spread(result):
            fades = [n.fade_added for n in result.nodes]
            return max(fades) - min(fades)

        assert spread(rack) <= spread(per_server) + 1e-9


def test_rack_batch_equals_each_cell_alone(tiny_scenario):
    """Two rack cells stepped as one batch: each cell's result, node
    results, recorder and demand generator equal its run alone."""
    rack = replace(tiny_scenario, architecture="rack-pool", stepper="fleet")
    old = replace(rack, n_nodes=4, initial_fade=0.1, utility_budget_w=40.0)
    trace = rack.trace_generator().days([DayClass.CLOUDY, DayClass.RAINY])
    cells = [(rack, "baat"), (old, "e-buff")]
    sim = Simulation.batch([(sc, make_policy(name), trace) for sc, name in cells])
    assert sim._fleet.n_cells == 2
    assert sim.power_path.architecture == "rack-pool"
    results = sim.run_cells()
    for (scenario, name), result, cell in zip(cells, results, sim.cells):
        alone = Simulation(scenario, make_policy(name), trace)
        expected = alone.run()
        assert run_digest(result) == run_digest(expected), name
        assert result.nodes == expected.nodes, name
        assert cell.rng.bit_generator.state == alone._rng.bit_generator.state, name
