"""Server power and VM state in the fleet stepper's arrays.

The fleet stepper keeps each server's power state (state, boot timer,
downtime, admin/policy flags, idle power at the current frequency,
discharge cap, VM hosting) and a VM table (host layout, workload
columns, stall, progress, utilisation cache) in :class:`FleetState`
arrays, and runs the power phase's server loops, the per-VM utilisation
draws and VM progress as array passes. These tests pin the arrays to the
objects they mirror, the demand kernel to ``Server.power``, the VM
kernels to ``VM.utilization``/``VM.advance``, and the per-kernel timers
to the power phase they split.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.server import (
    BOOT_SECONDS,
    IDLE_DYNAMIC_FRACTION,
    Server,
    ServerPowerState,
)
from repro.datacenter.vm import MIGRATION_SECONDS, VM
from repro.datacenter.workloads import PAPER_WORKLOADS, WorkloadProfile, standard_mix
from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.obs.timers import POWER_KERNELS
from repro.sim import fleet as fleet_module
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


def _twin_sims(scenario: Scenario, policy_name: str, days):
    """A fleet run and a reference run of the same scenario, to step in
    lockstep."""
    ref = dataclasses.replace(scenario, stepper="reference")
    trace = ref.trace_generator().days(days)
    return _fleet_sim(scenario, policy_name, days), Simulation(
        ref, make_policy(policy_name), trace
    )


#: VM table column -> the VM field it mirrors.
VM_COLUMNS = {
    "vm_stall_s": "_stall_remaining_s",
    "vm_progress": "progress",
    "vm_cache_t": "_cache_t",
    "vm_cache_util": "_cache_util",
}


def _assert_columns(fleet, vms) -> None:
    """Each dynamic VM column equals the field of ``vms`` (table order);
    a never-set cache time is NaN on both sides."""
    for column, field in VM_COLUMNS.items():
        want = [getattr(vm, field) for vm in vms]
        assert np.array_equal(getattr(fleet, column), want, equal_nan=True), column


def _assert_vm_table(fleet) -> None:
    """After :meth:`FleetState.materialize`, the VM table's layout,
    workload and dynamic columns equal the objects."""
    vms = [vm for nd in fleet.nodes for vm in nd.server.vms]
    assert len(fleet.vms) == len(vms)
    assert all(a is b for a, b in zip(fleet.vms, vms))
    assert fleet.vm_node.tolist() == [
        i for i, nd in enumerate(fleet.nodes) for _ in nd.server.vms
    ]
    assert fleet.vm_mean.tolist() == [vm.workload.mean_util for vm in vms]
    assert fleet.vm_burst.tolist() == [vm.workload.burst_util for vm in vms]
    assert fleet.vm_noise_sd.tolist() == [
        vm.workload.burstiness * vm.workload.mean_util for vm in vms
    ]
    _assert_columns(fleet, vms)


def _assert_vms_match(fleet, ref_cluster) -> None:
    """The VM table (arrays, not synced objects) equals a reference run
    stepped in lockstep: host layout, stall, progress and cache."""
    assert [[vm.name for vm in nd.server.vms] for nd in fleet.nodes] == [
        [vm.name for vm in nd.server.vms] for nd in ref_cluster.nodes
    ]
    ref_vms = [vm for nd in ref_cluster.nodes for vm in nd.server.vms]
    assert [vm.host for vm in fleet.vms] == [vm.host for vm in ref_vms]
    _assert_columns(fleet, ref_vms)


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
    _assert_vm_table(fleet)


def _run_coherent(
    sim: Simulation, ref: Simulation | None = None, sync: bool = True
) -> Simulation:
    """Step ``sim`` (and its lockstep reference twin ``ref``) to the end,
    checking the arrays after every step. With ``sync=False`` the objects
    are synced and checked only at the end, so the run sees them exactly
    as stale as an unchecked run does."""
    while sim.steps_done < sim.steps_total:
        sim.step_once()
        if sync:
            _assert_coherent(sim._fleet)
        if ref is not None:
            ref.step_once()
            _assert_vms_match(sim._fleet, ref.cluster)
    _assert_coherent(sim._fleet)
    return sim


class TestArrayCoherence:
    """After every step, each server array and the VM table equal the
    object fields; where a reference run steps alongside, each VM's
    stall, progress and utilisation cache equal the reference VM's."""

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
            *_twin_sims(scenario, "baat", [DayClass.SUNNY, DayClass.CLOUDY])
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

    HIDING = Scenario(
        n_nodes=3,
        dt_s=300.0,
        workloads=_workloads("web_serving", "data_analytics", "word_count"),
    )

    def test_hiding_migrations(self):
        """BAAT-h migrates VMs from its array pass; hosting and the VM
        table follow."""
        sim = _run_coherent(*_twin_sims(self.HIDING, "baat-h", [DayClass.CLOUDY] * 3))
        assert sim.policy.migrations > 0

    def test_hiding_migrations_unsynced(self):
        """As above, with the objects only as current as the engine
        keeps them: the migration pass must sync them itself."""
        sim = _run_coherent(
            *_twin_sims(self.HIDING, "baat-h", [DayClass.CLOUDY] * 3), sync=False
        )
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
        sim, ref = _twin_sims(scenario, "e-buff", [DayClass.RAINY, DayClass.SUNNY])
        seen = set()
        while sim.steps_done < sim.steps_total:
            sim.step_once()
            ref.step_once()
            _assert_coherent(sim._fleet)
            _assert_vms_match(sim._fleet, ref.cluster)
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


#: Outside kmeans_clustering's duty cycle (0.83 of its 30 min period).
T_VM = 10 * 3600.0 + 1500.0
DT_VM = 60.0


def _vm_kernel_table():
    """One server per DVFS level x VM mix x host kind, built identically
    on every call. Mixes: a plain VM; a migrating VM (stalled the whole
    step) beside a plain one; a resuming VM whose stall ends mid-step
    beside one outside its duty cycle; and an overcommitted server (a
    noise-free VM and two heavy ones, contention < 1). Host kinds: up;
    booting at demand time, up by the VM-advance phase; parked."""
    web = PAPER_WORKLOADS["web_serving"]
    heavy = PAPER_WORKLOADS["software_testing"]
    quiet = dataclasses.replace(web, name="quiet", burstiness=0.0)
    mixes = (
        ((web, 0.0),),
        ((PAPER_WORKLOADS["data_analytics"], None), (web, 0.0)),
        ((PAPER_WORKLOADS["nutch_indexing"], 25.0),
         (PAPER_WORKLOADS["kmeans_clustering"], 0.0)),
        ((quiet, 0.0), (heavy, 0.0), (heavy, 0.0)),
    )
    rows = list(itertools.product(range(4), range(len(mixes)), ("up", "boot", "parked")))
    cluster = Scenario(n_nodes=len(rows), manufacturing_variation=False).build_cluster()
    for node, (freq, mix, kind) in zip(cluster.nodes, rows):
        server = node.server
        server.set_freq_index(freq)
        if kind == "boot":
            server.state = ServerPowerState.BOOTING
            server._boot_remaining_s = DT_VM / 2
        server.policy_off = kind == "parked"
        for j, (workload, stall) in enumerate(mixes[mix]):
            vm = VM(name=f"{node.name}-vm{j}", workload=workload)
            server.attach(vm)
            if stall is None:
                vm.begin_migration("elsewhere")
            else:
                vm._stall_remaining_s = stall
    booting = [k for k, row in enumerate(rows) if row[2] == "boot"]
    return cluster, booting


def _reference_vm_advance(cluster, t, dt, rng) -> None:
    """The reference engine's VM-advance phase."""
    for node in cluster:
        server = node.server
        if not server.vms:
            continue
        speed = server.speed_factor()
        if speed <= 0.0:
            for vm in list(server.vms):
                vm.advance(dt, 0.0, t, rng, util=0.0)
            continue
        utils = [vm.utilization(t, rng) for vm in server.vms]
        demand = sum(utils)
        contention = min(1.0, 1.0 / demand) if demand > 1.0 else 1.0
        for vm, util in zip(list(server.vms), utils):
            vm.advance(dt, speed * contention, t, rng, util=util)


class TestVMKernels:
    """The demand kernel's VM pass and :meth:`FleetState.advance_vms`
    against ``Server.power(Server.utilization())`` and ``VM.advance``."""

    @pytest.mark.parametrize("seeded", (True, False), ids=("rng", "no-rng"))
    def test_match_object_path_bit_for_bit(self, seeded):
        make_rng = (lambda: np.random.default_rng(3)) if seeded else (lambda: None)

        cluster, booting = _vm_kernel_table()
        path = FleetPowerPath(cluster)
        fleet = path.fleet
        rng = make_rng()
        got_demand = path.demand(T_VM, rng).tolist()
        for i in booting:
            fleet.finish_boot(i)
        fleet.advance_vms(T_VM, DT_VM, rng)

        ref_cluster, _ = _vm_kernel_table()
        ref_rng = make_rng()
        want_demand = [
            nd.server.power(nd.server.utilization(T_VM, ref_rng))
            for nd in ref_cluster.nodes
        ]
        for i in booting:
            server = ref_cluster.nodes[i].server
            server.state = ServerPowerState.UP
            server._boot_remaining_s = 0.0
        _reference_vm_advance(ref_cluster, T_VM, DT_VM, ref_rng)

        assert got_demand == want_demand
        _assert_columns(fleet, [vm for nd in ref_cluster.nodes for vm in nd.server.vms])
        if seeded:
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The table covers what it claims to.
        assert PAPER_WORKLOADS["kmeans_clustering"].utilization_at(T_VM) == 0.0
        stalls = set(fleet.vm_stall_s.tolist())
        assert 0.0 in stalls and MIGRATION_SECONDS - DT_VM in stalls
        overcommitted = [
            nd.server for nd in ref_cluster.nodes if len(nd.server.vms) == 3
        ]
        assert all(
            sum(vm.utilization(T_VM, ref_rng) for vm in s.vms) > 1.0
            for s in overcommitted
        )
        assert set(fleet.freq_index.tolist()) == {0, 1, 2, 3}
        assert fleet.vm_progress.min() == 0.0 < fleet.vm_progress.max()

    def test_wave_matches_utilization_at_over_a_day(self):
        """The per-group wave (and the deterministic utilisation built on
        it) equals ``WorkloadProfile.utilization_at`` for every paper
        workload, every 30 s of a day."""
        cluster = Scenario(n_nodes=1).build_cluster()
        for name, profile in PAPER_WORKLOADS.items():
            cluster.nodes[0].server.attach(VM(name=name, workload=profile))
        fleet = FleetPowerPath(cluster).fleet
        on = np.ones(1, dtype=bool)
        for step in range(2880):
            t = step * 30.0
            got = fleet.vm_utilization(on, t, None).tolist()
            assert got == [vm.workload.utilization_at(t) for vm in fleet.vms], t

    def test_brownout_checkpoint_written_through(self):
        cluster = Scenario(n_nodes=2).build_cluster()
        vms = [VM(name=f"vm{j}", workload=PAPER_WORKLOADS["web_serving"]) for j in range(2)]
        for vm in vms:
            cluster.nodes[1].server.attach(vm)
        fleet = FleetPowerPath(cluster).fleet
        fleet.vm_stall_s[:] = [12.0, 400.0]  # array-owned, objects stale
        fleet.brownout(1)
        assert fleet.vm_stall_s.tolist() == [300.0, 400.0]
        assert [vm._stall_remaining_s for vm in vms] == [300.0, 400.0]

    def test_sum_by_node_is_builtin_sum(self, monkeypatch):
        """Per-server VM sums are builtin ``sum()`` in ``server.vms``
        order, which compensates from Python 3.12 on: a plain left fold
        of [0.1, 0.2, 0.3] gives 0.6000000000000001 where that sum gives
        0.6. ``math.fsum`` stands in for a compensated ``sum()`` so the
        check bites on every Python version."""
        counts = (0, 1, 2, 3, 4)
        cluster = Scenario(n_nodes=len(counts)).build_cluster()
        web = PAPER_WORKLOADS["web_serving"]
        for node, count in zip(cluster.nodes, counts):
            for j in range(count):
                node.server.attach(VM(name=f"{node.name}-vm{j}", workload=web))
        fleet = FleetPowerPath(cluster).fleet
        per_node = [[], [0.5], [0.1, 0.2], [0.1, 0.2, 0.3], [0.3, 0.1, 0.2, 0.4]]
        values = np.array([u for us in per_node for u in us])

        assert fleet.sum_by_node(values).tolist() == [sum(us) for us in per_node]
        monkeypatch.setattr(fleet_module, "sum", math.fsum, raising=False)
        got = fleet.sum_by_node(values).tolist()
        assert got == [math.fsum(us) for us in per_node]
        assert got[3] == 0.6


class _OddServer(Server):
    pass


class _OddVM(VM):
    pass


class _OddWorkload(WorkloadProfile):
    pass


def _odd_workload():
    w = PAPER_WORKLOADS["web_serving"]
    return _OddWorkload(
        name="odd", mean_util=w.mean_util, burst_util=w.burst_util,
        period_s=w.period_s, burstiness=w.burstiness,
    )


class TestValidation:
    """Types the VM and server kernels transcribe but cannot replicate
    are refused, at construction and at deploy."""

    @pytest.mark.parametrize(
        "odd",
        (
            lambda node: setattr(node, "server", _OddServer(name=node.name)),
            lambda node: node.server.attach(
                _OddVM(name="odd", workload=PAPER_WORKLOADS["web_serving"])
            ),
            lambda node: node.server.attach(VM(name="odd", workload=_odd_workload())),
        ),
        ids=("server", "vm", "workload"),
    )
    def test_rejected_at_construction(self, odd):
        cluster = Scenario(n_nodes=2).build_cluster()
        odd(cluster.nodes[1])
        with pytest.raises(ConfigurationError):
            FleetPowerPath(cluster)

    def test_odd_workload_rejected_at_deploy(self, one_sunny_day):
        scenario = Scenario(
            n_nodes=2, dt_s=300.0, stepper="fleet", workloads=(_odd_workload(),)
        )
        sim = Simulation(scenario, make_policy("e-buff"), one_sunny_day)
        with pytest.raises(ConfigurationError):
            sim.deploy()

    def test_odd_vm_rejected_at_deploy(self, one_sunny_day):
        class OddScenario(Scenario):
            def build_vms(self):
                return [
                    _OddVM(name=vm.name, workload=vm.workload)
                    for vm in super().build_vms()
                ]

        scenario = OddScenario(n_nodes=6, dt_s=300.0, stepper="fleet")
        sim = Simulation(scenario, make_policy("e-buff"), one_sunny_day)
        with pytest.raises(ConfigurationError):
            sim.deploy()


class TestFinishedBootOrdering:
    """A server that finishes booting in the power phase's server advance
    was booting at demand time: its VMs sample utilisation in the
    VM-advance phase, after every demand draw of the step."""

    @staticmethod
    def _run(stepper):
        scenario = Scenario(
            n_nodes=3,
            dt_s=60.0,
            stepper=stepper,
            workloads=_workloads(
                "web_serving", "data_analytics", "word_count", "nutch_indexing"
            ),
        )
        trace = scenario.trace_generator().days([DayClass.SUNNY])
        sim = Simulation(scenario, make_policy("e-buff"), trace)
        while sim.steps_done < int(10 * 3600 / scenario.dt_s):
            sim.step_once()
        fleet = sim._fleet
        if fleet is not None:
            fleet.materialize()
        hosts = [nd for nd in sim.cluster.nodes if nd.server.vms]
        # Later hosts draw at demand time, before the booted host's VMs.
        assert len(hosts) >= 2
        server = hosts[0].server
        server.state = ServerPowerState.BOOTING
        server._boot_remaining_s = scenario.dt_s / 2
        for vm in server.vms:
            vm._stall_remaining_s = 0.0
        if fleet is not None:
            fleet.capture()
        t = sim.steps_done * scenario.dt_s
        sim.step_once()
        if fleet is not None:
            fleet.materialize()
        assert server.state is ServerPowerState.UP
        assert all(vm._cache_t == t and vm.progress > 0.0 for vm in server.vms)
        return sim.steps_done, sim._rng.bit_generator.state, sim._collect()

    def test_both_steppers_agree(self):
        fleet = self._run("fleet")
        reference = self._run("reference")
        assert fleet == reference


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
