"""Server power state in the fleet stepper's arrays.

The fleet stepper keeps each server's power state (state, boot timer,
downtime, admin/policy flags, idle power at the current frequency,
discharge cap, VM hosting) in :class:`FleetState` arrays and runs the
power phase's server loops as array passes. These tests pin the arrays
to the objects they mirror, the closed-form demand to ``Server.power``,
and the per-kernel timers to the power phase they split.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.server import BOOT_SECONDS, IDLE_DYNAMIC_FRACTION, ServerPowerState
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS, standard_mix
from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.obs.timers import POWER_KERNELS
from repro.sim.engine import Simulation
from repro.sim.fleet import FleetPowerPath
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

STATE_CODE = {
    ServerPowerState.UP: 0,
    ServerPowerState.DOWN: 1,
    ServerPowerState.BOOTING: 2,
}


def _workloads(*names):
    return tuple(PAPER_WORKLOADS[n] for n in names)


def _fleet_sim(scenario: Scenario, policy_name: str, days) -> Simulation:
    scenario = dataclasses.replace(scenario, stepper="fleet")
    trace = scenario.trace_generator().days(days)
    return Simulation(scenario, make_policy(policy_name), trace)


def _assert_coherent(fleet) -> None:
    """Every server array equals the object field it mirrors."""
    fleet.materialize()
    servers = [nd.server for nd in fleet.nodes]
    expected = {
        "server_state": [STATE_CODE[s.state] for s in servers],
        "boot_left_s": [s._boot_remaining_s for s in servers],
        "downtime_s": [s.downtime_s for s in servers],
        "admin_off": [s.admin_off for s in servers],
        "policy_off_mask": [s.policy_off for s in servers],
        "freq_index": [s.freq_index for s in servers],
        "idle_now_w": [
            s.params.idle_w * (1.0 - IDLE_DYNAMIC_FRACTION * (1.0 - s.frequency))
            for s in servers
        ],
        "discharge_cap_w": [nd.discharge_cap_w for nd in fleet.nodes],
        "hosting": [bool(s.vms) for s in servers],
        "server_up": [nd.is_up for nd in fleet.nodes],
    }
    for name, want in expected.items():
        got = getattr(fleet, name).tolist()
        assert got == want, name


def _run_coherent(sim: Simulation) -> Simulation:
    while sim.steps_done < sim.steps_total:
        sim.step_once()
        _assert_coherent(sim._fleet)
    return sim


class TestArrayCoherence:
    """After every step, each server array equals its object field."""

    def test_action_rich_48_node_baat(self):
        mix = standard_mix()
        profiles = tuple(
            dataclasses.replace(mix[i % len(mix)], name=f"{mix[i % len(mix)].name}-{i}")
            for i in range(24)
        )
        scenario = Scenario(
            n_nodes=48,
            dt_s=300.0,
            initial_soc=0.55,
            sunny_day_kwh=24.0,
            workloads=profiles,
        )
        sim = _run_coherent(
            _fleet_sim(scenario, "baat", [DayClass.SUNNY, DayClass.CLOUDY])
        )
        assert sim.policy.consolidations > 0
        assert any(n.server.policy_off for n in sim.cluster)

    def test_slowdown_dvfs_and_caps(self):
        # Throttles and caps from the object-path ladder, releases from
        # the monitor's in-place array pass.
        scenario = Scenario(
            n_nodes=6,
            dt_s=300.0,
            initial_soc=0.6,
            sunny_day_kwh=6.0,
        )
        sim = _fleet_sim(scenario, "baat-s", [DayClass.CLOUDY, DayClass.SUNNY])
        throttled = capped = False
        while sim.steps_done < sim.steps_total:
            sim.step_once()
            _assert_coherent(sim._fleet)
            throttled |= bool((sim._fleet.freq_index > 0).any())
            capped |= bool(np.isfinite(sim._fleet.discharge_cap_w).any())
        assert throttled and capped
        assert sim.policy.monitor.throttles > 0

    def test_old_batteries_rainy_days(self):
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            initial_fade=0.12,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        _run_coherent(
            _fleet_sim(scenario, "baat", [DayClass.RAINY, DayClass.RAINY, DayClass.CLOUDY])
        )

    def test_hiding_migrations(self):
        """BAAT-h migrates VMs from its array pass; hosting follows."""
        scenario = Scenario(
            n_nodes=3,
            dt_s=300.0,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        sim = _run_coherent(_fleet_sim(scenario, "baat-h", [DayClass.CLOUDY] * 3))
        assert sim.policy.migrations > 0

    def test_brownout_and_reboot_transitions(self):
        """An aging-blind fleet on an empty battery browns out and
        reboots, so every state transition is exercised (a boot outlasts
        a 60 s step)."""
        scenario = Scenario(
            n_nodes=4,
            dt_s=60.0,
            initial_soc=0.3,
            sunny_day_kwh=3.0,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        sim = _fleet_sim(scenario, "e-buff", [DayClass.RAINY, DayClass.SUNNY])
        seen = set()
        while sim.steps_done < sim.steps_total:
            sim.step_once()
            _assert_coherent(sim._fleet)
            seen.update(sim._fleet.server_state.tolist())
        assert seen == {0, 1, 2}


def _demand_table():
    """One node per state x admin x policy x freq index x hosting row,
    built identically on every call."""
    rows = list(
        itertools.product(
            (ServerPowerState.UP, ServerPowerState.DOWN, ServerPowerState.BOOTING),
            (False, True),
            (False, True),
            range(4),
            (False, True),
        )
    )
    cluster = Scenario(n_nodes=len(rows), manufacturing_variation=False).build_cluster()
    workload = PAPER_WORKLOADS["web_serving"]
    for k, (node, (state, admin, policy, freq, hosting)) in enumerate(
        zip(cluster.nodes, rows)
    ):
        server = node.server
        server.state = state
        if state is ServerPowerState.BOOTING:
            server._boot_remaining_s = BOOT_SECONDS / 2
        server.admin_off = admin
        server.policy_off = policy
        server.set_freq_index(freq)
        if hosting:
            for j in range(2):
                server.attach(VM(name=f"vm{k}-{j}", workload=workload))
    return cluster, rows


class TestDemandKernel:
    T = 10 * 3600.0

    def test_matches_server_power_bit_for_bit(self):
        cluster, _rows = _demand_table()
        path = FleetPowerPath(cluster)
        rng = np.random.default_rng(7)
        got = path.demand(self.T, rng).tolist()

        # The object path on an identical table (VMs cache their draw per
        # timestamp, so the reference needs its own VMs).
        ref_cluster, _ = _demand_table()
        ref_rng = np.random.default_rng(7)
        want = [
            nd.server.power(nd.server.utilization(self.T, ref_rng))
            for nd in ref_cluster.nodes
        ]
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(7).bit_generator.state

    def test_non_drawing_rows_leave_rng_untouched(self):
        cluster, rows = _demand_table()
        fresh = np.random.default_rng(7).bit_generator.state
        drawing = [
            state is ServerPowerState.UP and not admin and not policy and hosting
            for state, admin, policy, _freq, hosting in rows
        ]
        assert 0 < sum(drawing) < len(rows)
        for node, draws in zip(cluster.nodes, drawing):
            if draws:
                continue
            rng = np.random.default_rng(7)
            node.server.power(node.server.utilization(self.T, rng))
            assert rng.bit_generator.state == fresh, node.name

        # The kernel over a table without its drawing rows draws nothing.
        for node, draws in zip(cluster.nodes, drawing):
            if draws:
                node.server.admin_off = True
        rng = np.random.default_rng(7)
        FleetPowerPath(cluster).demand(self.T, rng)
        assert rng.bit_generator.state == fresh


class TestRestartKernel:
    def test_vector_max_discharge_power_matches_scalar_twins(self):
        scenario = Scenario(n_nodes=8, initial_fade=0.2)
        cluster = scenario.build_cluster()
        for k, node in enumerate(cluster.nodes):
            node.battery._soc = (0.02, 0.1, 0.2, 0.25, 0.3, 0.5, 0.8, 1.0)[k]
        fleet = FleetPowerPath(cluster).fleet
        der = fleet.derived(60.0)
        idx = np.arange(fleet.n)
        got = fleet.max_discharge_power(idx, der).tolist()
        assert got == [fleet.max_discharge_power_i(i, der) for i in idx.tolist()]
        assert got == [nd.battery.max_discharge_power() for nd in cluster.nodes]
        assert got[0] == 0.0 and got[-1] > 0.0

    def test_negative_utility_budget_rejected(self):
        cluster = Scenario(n_nodes=2).build_cluster()
        with pytest.raises(ConfigurationError):
            FleetPowerPath(cluster, utility_budget_w=-1.0)


@pytest.fixture
def _registry_off():
    REGISTRY.enabled = False
    REGISTRY.reset()
    yield
    REGISTRY.enabled = False
    REGISTRY.reset()


@pytest.mark.usefixtures("_registry_off")
class TestKernelTimers:
    def _run(self, tiny_scenario, one_cloudy_day):
        scenario = dataclasses.replace(tiny_scenario, stepper="fleet")
        Simulation(scenario, make_policy("baat"), one_cloudy_day).run()
        return REGISTRY.snapshot()["histograms"]

    def test_kernels_sum_within_power_phase(self, tiny_scenario, one_cloudy_day):
        REGISTRY.enabled = True
        hists = self._run(tiny_scenario, one_cloudy_day)
        power = hists["phase/power"]
        kernels = [hists[f"phase/power/{name}"] for name in POWER_KERNELS]
        assert all(h["count"] == power["count"] > 0 for h in kernels)
        assert sum(h["total"] for h in kernels) <= power["total"]

    def test_disabled_registry_creates_no_histograms(
        self, tiny_scenario, one_cloudy_day
    ):
        assert self._run(tiny_scenario, one_cloudy_day) == {}

    def test_reference_stepper_times_no_kernels(self, tiny_scenario, one_cloudy_day):
        REGISTRY.enabled = True
        Simulation(tiny_scenario, make_policy("baat"), one_cloudy_day).run()
        names = REGISTRY.snapshot()["histograms"]
        assert "phase/power" in names
        assert not any(name.startswith("phase/power/") for name in names)
