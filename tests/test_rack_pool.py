"""Tests for the rack-shared battery architecture (paper Fig. 7)."""

from dataclasses import replace

import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.rack import RackPowerPath
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import WorkloadProfile
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


def steady_vm(name, util):
    profile = WorkloadProfile(
        name=f"wl-{name}", mean_util=util, burst_util=0.0, period_s=3600.0,
        burstiness=0.0,
    )
    return VM(name=name, workload=profile)


def make_rack(n=3, initial_soc=1.0):
    from repro.battery.params import BatteryParams
    from repro.battery.unit import BatteryUnit

    nodes = []
    for i in range(n):
        battery = BatteryUnit(BatteryParams(), name=f"b{i}", initial_soc=initial_soc)
        nodes.append(Node.build(f"node{i}", battery=battery))
    cluster = Cluster(nodes)
    return cluster, RackPowerPath(cluster)


class TestRackRouting:
    def test_pool_bridges_aggregate_deficit(self):
        cluster, path = make_rack()
        for node in cluster:
            cluster.place(steady_vm(f"vm-{node.name}", 0.5), node.name)
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.battery_to_load_w == pytest.approx(flows.demand_w, rel=0.02)
        assert flows.browned_out_nodes == 0

    def test_cycling_spread_across_members(self):
        """The defining property of the shared pool: one loaded server's
        draw shallow-cycles every battery instead of deep-cycling one."""
        cluster, path = make_rack()
        cluster.place(steady_vm("hungry", 0.9), "node0")
        for step in range(60):
            path.step(step * 60.0, 60.0, solar_w=0.0)
        socs = [n.battery.soc for n in cluster]
        assert max(socs) - min(socs) < 0.05
        assert all(s < 1.0 for s in socs)

    def test_surplus_charges_the_pool(self):
        cluster, path = make_rack(initial_soc=0.5)
        flows = path.step(0.0, 60.0, solar_w=2000.0)
        assert flows.solar_to_battery_w > 0.0

    def test_hungriest_loads_shed_first(self, params):
        cluster, path = make_rack(initial_soc=params.cutoff_soc)
        cluster.place(steady_vm("big", 0.9), "node0")
        cluster.place(steady_vm("small", 0.2), "node1")
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.browned_out_nodes >= 1
        assert cluster.node("node0").server.state.value == "down"

    def test_caps_limit_the_pool(self):
        cluster, path = make_rack()
        for node in cluster:
            cluster.place(steady_vm(f"vm-{node.name}", 0.5), node.name)
            node.discharge_cap_w = 5.0
        flows = path.step(0.0, 60.0, solar_w=0.0)
        assert flows.battery_to_load_w <= 15.0 + 1e-6

    def test_batteries_advance_every_step(self):
        cluster, path = make_rack()
        path.step(0.0, 60.0, solar_w=500.0)
        path.step(60.0, 60.0, solar_w=0.0)
        for node in cluster:
            assert node.battery.time_s == pytest.approx(120.0)


class TestScenarioIntegration:
    def test_architecture_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(architecture="blockchain")

    def test_rack_scenario_runs_end_to_end(self, tiny_scenario):
        scenario = replace(tiny_scenario, architecture="rack-pool")
        trace = scenario.trace_generator().day(DayClass.CLOUDY)
        result = Simulation(scenario, make_policy("e-buff"), trace).run()
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
            replace(tiny_scenario, architecture="rack-pool"),
            make_policy("e-buff"),
            trace,
        ).run()

        def spread(result):
            fades = [n.fade_added for n in result.nodes]
            return max(fades) - min(fades)

        assert spread(rack) <= spread(per_server) + 1e-9
