"""The time-stepped simulation engine.

One :class:`Simulation` executes one policy against one scenario and one
solar trace (or, built by :meth:`Simulation.batch`, several such runs as
the cells of one batched fleet):

1. Build the cluster, bind the policy, and let it place every VM.
2. Step through the trace. Inside the operating window servers run their
   VMs; the power path routes solar -> load -> battery each step and the
   policy's control loop runs every control interval. Outside the window
   servers are administratively off and surplus solar keeps charging the
   batteries (the controller "precisely control[s] the battery charger so
   that the stored energy reflects the actual solar power supply").
3. Collect a :class:`~repro.sim.results.SimResult` with throughput, aging,
   and availability statistics.

Day boundaries reset the controller's metric windows and call the
policy's day hook (planned aging recomputes DoD goals there).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policies.base import Policy
from repro.datacenter.power_path import PowerPath
from repro.errors import ConfigurationError, SimulationError
from repro.obs import ALERTS, BUS, REGISTRY
from repro.obs.events import (
    BatteryConfigEvent,
    DayStartEvent,
    RunStartEvent,
    SocCrossingEvent,
    TraceMetaEvent,
)
from repro.obs.spans import SPANS
from repro.obs.telemetry import SCHEMA_VERSION, TELEMETRY
from repro.obs.timers import StepPhaseTimers
from repro.rng import spawn
from repro.sim.fleet import FleetCell, FleetPowerPath, FleetState
from repro.sim.recorder import LOW_SOC_THRESHOLD, TraceRecorder
from repro.sim.results import NodeResult, SimResult
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Tracker mark labelling the start of the simulation (run-wide metrics).
RUN_MARK = "sim/run-start"


class _Cell:
    """One scenario/policy/trace run inside a :class:`Simulation`: the
    state that stays per run when several runs step as one batch."""

    def __init__(
        self,
        scenario: Scenario,
        policy: Policy,
        trace: SolarTrace,
        record_series: bool,
    ):
        if abs(trace.dt_s - scenario.dt_s) > 1e-9:
            raise ConfigurationError(
                f"trace dt ({trace.dt_s}s) must match scenario dt ({scenario.dt_s}s)"
            )
        self.scenario = scenario
        self.policy = policy
        self.trace = trace
        self.cluster = scenario.build_cluster()
        policy.bind(self.cluster, scenario=scenario)
        self.recorder = TraceRecorder(
            [n.name for n in self.cluster], record_series=record_series
        )
        self.rng = spawn(scenario.seed, f"workload/{policy.name}")
        #: The fleet stepper's arrays of this cell: the FleetState of a
        #: single fleet run, this cell's FleetCell view in a batch, or
        #: None on the reference stepper.
        self.fleet = None
        #: The arrays this cell's policy controls from: ``fleet``, or on
        #: the reference stepper a FleetState of the cluster that each
        #: control pass re-captures from the authoritative objects.
        self.control_view = None
        #: This cell's position in its simulation.
        self.index = 0
        self.fade_start: Dict[str, float] = {}
        #: The exception that ended this cell inside a batch.
        self.error: Optional[Exception] = None

    def attach(self, fleet, index: int) -> None:
        """Place the cell in its simulation; its controller ranks nodes
        from ``fleet`` when there is one (on the reference stepper it
        ranks from the objects)."""
        self.fleet, self.index = fleet, index
        if fleet is None:
            self.control_view = FleetState(self.cluster)
        else:
            self.control_view = fleet
            if self.policy.controller is not None:
                self.policy.controller.attach_fleet(fleet)


class Simulation:
    """Runs one policy over one scenario and solar trace.

    :meth:`batch` builds a simulation of several independent runs (the
    *cells* of a batch) that step together on the fleet stepper, each
    with its own cluster, policy, solar trace, demand generator and
    recorder; each cell's result equals its run alone, bit for bit.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: Policy,
        trace: SolarTrace,
        record_series: bool = False,
    ):
        self._build([_Cell(scenario, policy, trace, record_series)], batched=False)

    @classmethod
    def batch(
        cls, runs: Sequence[Tuple[Scenario, Policy, SolarTrace]]
    ) -> "Simulation":
        """One simulation of several independent runs as a batched fleet.

        The runs must name the fleet stepper and share every scenario
        field the engine reads per step rather than per node
        (:func:`batch_key`). Tracing and alerting, which key on node
        names, are not supported inside a batch. :meth:`run_cells`
        returns one result (or the exception that ended it) per run; a
        run whose cell fails to build (a trace whose step differs from
        its scenario's, a policy that cannot bind, a cluster the fleet
        kernels refuse) ends alone with that error.
        """
        keys = {batch_key(scenario, trace) for scenario, _, trace in runs}
        if len(keys) != 1 or None in keys:
            raise ConfigurationError(
                "a batch needs fleet-stepper runs with one batch key"
            )
        if BUS.enabled or ALERTS.enabled:
            raise ConfigurationError("a batch cannot run with tracing or alerting on")
        cells, errors = [], []
        for run in runs:
            try:
                cell = _Cell(*run, record_series=False)
                FleetState.validate(cell.cluster)
                FleetPowerPath.validate_budget(cell.scenario.utility_budget_w)
            except Exception as exc:  # noqa: BLE001 - this run's error alone
                errors.append(exc)
            else:
                errors.append(None)
                cells.append(cell)
        sim = cls.__new__(cls)
        sim.cells = []
        if cells:
            sim._build(cells, batched=True)
        sim._build_errors = errors
        return sim

    def _build(self, cells: List[_Cell], batched: bool) -> None:
        self.cells = cells
        self._batched = batched
        first = cells[0]
        #: The (first) cell's run; a batch's cells share every field of
        #: the scenario the engine reads per step.
        self.scenario = scenario = first.scenario
        self.policy = first.policy
        self.trace = first.trace
        self.cluster = first.cluster
        if batched:
            self.power_path = FleetPowerPath(
                [c.cluster for c in cells],
                utility_budget_w=[c.scenario.utility_budget_w for c in cells],
                architecture=scenario.architecture,
            )
            fleet = self.power_path.fleet
            for k, cell in enumerate(cells):
                cell.attach(FleetCell(fleet, k), k)
            # One recorder folds every cell's nodes per step; run_cells
            # hands each cell its rows.
            self._batch_recorder = TraceRecorder(
                [f"{k}/{n}" for k, c in enumerate(cells) for n in c.recorder.node_names],
                record_series=False,
            )
        else:
            if scenario.stepper == "fleet":
                self.power_path = FleetPowerPath(
                    self.cluster,
                    utility_budget_w=scenario.utility_budget_w,
                    architecture=scenario.architecture,
                )
            else:
                self.power_path = PowerPath(
                    self.cluster, utility_budget_w=scenario.utility_budget_w
                )
            # Fleet mode keeps battery/tracker state in struct-of-arrays
            # form between steps; the engine materializes it back onto the
            # objects only at the boundaries that read them (policy hooks,
            # collect).
            fleet = getattr(self.power_path, "fleet", None)
            first.attach(fleet, 0)
        self._fleet = fleet
        self._build_errors = [None] * len(cells)
        self.recorder = first.recorder
        self._rng = first.rng
        #: The demand noise generator(s) the fleet kernels draw from.
        self._rngs = [c.rng for c in cells] if batched else first.rng
        #: Cells still running (a batch drops a cell whose hooks raised).
        self._live = tuple(cells)
        self._placed = False
        self._begun = False
        # Step state is defined from construction so steps_done and
        # external inspection are valid before _begin ever runs.
        self._step = 0
        self._soc_below = np.zeros(0, dtype=bool)
        self._phase_timers: StepPhaseTimers | None = None
        # Last admin window state written to the servers (None = never):
        # the per-node admin_off fan-out only runs on transitions.
        self._admin_in_window: bool | None = None

    def _each_cell(self, hook, *args) -> None:
        """``hook(cell, *args)`` for every live cell. In a batch, a cell
        whose hook raises stops there alone; its batch-mates go on."""
        for cell in self._live:
            try:
                hook(cell, *args)
            except Exception as exc:
                if not self._batched:
                    raise
                cell.error = exc
                self._live = tuple(c for c in self._live if c is not cell)

    # ------------------------------------------------------------------
    def deploy(self) -> None:
        """Place every scenario VM through the policy (once)."""
        if self._placed:
            return
        self._each_cell(self._deploy_cell)
        if self._fleet is not None:
            self._fleet.refresh_policy_view()
        self._placed = True

    @staticmethod
    def _deploy_cell(cell: _Cell) -> None:
        for vm in cell.scenario.build_vms():
            cell.policy.place_vm(vm)
        if cell.fleet is not None:
            FleetState.validate_vms(cell.cluster)

    def _begin(self) -> None:
        """One-time setup before stepping: deploy VMs, mark trackers.

        Guarded by an explicit flag — truthiness of a cell's
        ``fade_start`` is not a begun-sentinel (it stays empty on an empty cluster, which
        would re-run setup and re-mark trackers every step).
        """
        if self._begun:
            return
        self._begun = True
        # Alert episodes are per run too: one a previous run left open
        # must neither suppress nor clear inside this one.
        ALERTS.reset_episodes()
        if BUS.enabled:
            BUS.now = 0.0
            # A previous run in this process may have ended mid-excursion;
            # its open run-scope spans must not leak into this run's trace
            # (campaign-scope spans — the enclosing cell — survive).
            SPANS.reset(scope="run")
            # Reset the telemetry layer's per-run state (frame delta
            # chains re-anchor) and stamp the trace header first so
            # replay tools know the schema/tier before any payload.
            TELEMETRY.start_run()
            BUS.emit(
                TraceMetaEvent(
                    t=0.0,
                    schema=SCHEMA_VERSION,
                    telemetry=TELEMETRY.policy.spec(),
                    stepper=self.scenario.stepper,
                    n_nodes=len(self.cluster),
                )
            )
            BUS.emit(
                RunStartEvent(
                    t=0.0,
                    policy=self.policy.name,
                    n_nodes=len(self.cluster),
                    steps_total=self.steps_total,
                )
            )
            # Battery constants make the trace self-contained for offline
            # aging attribution (repro health on the JSONL file alone).
            for node in self.cluster:
                params = node.battery.params
                BUS.emit(
                    BatteryConfigEvent(
                        t=0.0,
                        node=node.name,
                        lifetime_ah_throughput=params.lifetime_ah_throughput,
                        reference_current=params.reference_current,
                        capacity_ah=params.capacity_ah,
                        cutoff_soc=params.cutoff_soc,
                    )
                )
        self.deploy()
        for cell in self.cells:
            for node in cell.cluster:
                node.tracker.mark(RUN_MARK)
                cell.fade_start[node.name] = node.battery.capacity_fade
        self._soc_below = (
            np.array([node.battery.soc for node in self.cluster]) < LOW_SOC_THRESHOLD
        )
        # Built lazily so a disabled registry is never populated with
        # empty phase histograms by a plain (untraced) run.
        if REGISTRY.enabled:
            self._phase_timers = StepPhaseTimers(REGISTRY)
        # Step-invariant cadences, computed once rather than per step.
        dt = self.scenario.dt_s
        self._control_every = max(
            1, int(round(self.scenario.control_interval_s / dt))
        )
        self._steps_per_day = int(round(SECONDS_PER_DAY / dt))

    @property
    def steps_total(self) -> int:
        """Number of steps in the bound trace."""
        return len(self.trace.power_w)

    @property
    def steps_done(self) -> int:
        """Steps executed so far."""
        return self._step

    def step_once(self) -> None:
        """Execute exactly one simulation step.

        Exposed so tests and tools can interleave external events
        (failure injection, live inspection) with the engine; :meth:`run`
        is just a loop over this.
        """
        self._begin()
        if self._step >= self.steps_total:
            raise SimulationError("trace exhausted; no steps remain")
        scenario = self.scenario
        dt = scenario.dt_s
        window_lo, window_hi = scenario.operating_window_h
        control_every = self._control_every
        steps_per_day = self._steps_per_day
        fleet = self._fleet

        step = self._step
        # Solar watts per cell.
        solar = [float(cell.trace.power_w[step]) for cell in self.cells]
        t = step * dt
        tod_h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        in_window = window_lo <= tod_h < window_hi

        # Observability guards: one attribute load + branch each when the
        # layer is off (the near-free contract of repro.obs).
        obs_on = BUS.enabled
        timing = REGISTRY.enabled
        if obs_on:
            BUS.now = t
        if timing and self._phase_timers is None:
            # Registry was enabled after _begin (e.g. mid-run): attach now.
            self._phase_timers = StepPhaseTimers(REGISTRY)

        # Diurnal ambient temperature, peaking mid-afternoon (14:00).
        ambient = scenario.ambient_mean_c + 0.5 * scenario.ambient_swing_c * (
            math.cos(2.0 * math.pi * (tod_h - 14.0) / 24.0)
        )
        if fleet is not None:
            fleet.set_ambient(ambient)
        else:
            for node in self.cluster:
                node.battery.thermal.ambient_c = ambient

        if step % steps_per_day == 0:
            day_index = step // steps_per_day
            if obs_on:
                BUS.emit(DayStartEvent(t=t, day_index=day_index))
            if timing and step > 0:
                REGISTRY.sample(t)
            self._each_cell(self._day_start, t)

        if self._admin_in_window is not in_window:
            for cell in self.cells:
                for node in cell.cluster:
                    node.server.admin_off = not in_window
            if fleet is not None:
                fleet.set_admin_off(not in_window)
            self._admin_in_window = in_window

        # --- control phase -------------------------------------------
        if timing:
            t0 = perf_counter()
        if in_window and step % control_every == 0:
            self._each_cell(self._control, t, dt, solar)
        if timing:
            t1 = perf_counter()
            self._phase_timers.control.observe(t1 - t0)
            t0 = t1

        # --- power-path phase ----------------------------------------
        if self._batched:
            flows = self.power_path.step(t, dt, solar, rng=self._rngs)
        else:
            flows = self.power_path.step(t, dt, solar[0], rng=self._rng)
        if timing:
            t1 = perf_counter()
            self._phase_timers.power.observe(t1 - t0)
            t0 = t1

        if obs_on:
            self._emit_soc_crossings(t)

        # --- VM-advance phase ----------------------------------------
        # VM progress accounting. Overcommitted servers time-share: when
        # hosted VMs demand more than one CPU, each runs at its
        # proportional share (consolidation trades speed for staying
        # powered, which the throughput metric must reflect). Fleet runs
        # do the same as one array pass over the VM table.
        if in_window and fleet is not None:
            fleet.advance_vms(t, dt, self._rngs)
        elif in_window:
            for node in self.cluster:
                if not node.server.vms:
                    # No hosted VMs: neither branch below would advance
                    # anything or draw RNG, so skip the speed query.
                    continue
                speed = node.server.speed_factor()
                if speed <= 0.0:
                    # A down/parked host makes no progress; passing an
                    # explicit zero utilisation keeps the VMs from burning
                    # RNG draws that the demand pass never made.
                    for vm in list(node.server.vms):
                        vm.advance(dt, 0.0, t, self._rng, util=0.0)
                    continue
                # Sample each VM's utilisation exactly once per step and
                # reuse it for both the contention factor and the advance,
                # so the progress accrued agrees with the demand that set
                # the contention (and RNG state moves once per VM).
                utils = [vm.utilization(t, self._rng) for vm in node.server.vms]
                demand = sum(utils)
                contention = min(1.0, 1.0 / demand) if demand > 1.0 else 1.0
                factor = speed * contention
                for vm, util in zip(list(node.server.vms), utils):
                    vm.advance(dt, factor, t, self._rng, util=util)
        if timing:
            t1 = perf_counter()
            self._phase_timers.advance.observe(t1 - t0)
            t0 = t1

        # --- record phase --------------------------------------------
        if fleet is not None:
            recorder = self._batch_recorder if self._batched else self.recorder
            recorder.record_arrays(t, dt, flows, fleet.soc, fleet.last_current)
        else:
            self.recorder.record(
                t,
                dt,
                flows,
                {n.name: n.battery.soc for n in self.cluster},
                {n.name: n.battery.last_current_a for n in self.cluster},
            )
        if timing:
            self._phase_timers.record.observe(perf_counter() - t0)
        self._step += 1

    @staticmethod
    def _day_start(cell: _Cell, t: float) -> None:
        if cell.fleet is not None:
            cell.fleet.materialize()
        cell.policy.on_day_start(t)

    @staticmethod
    def _control(cell: _Cell, t: float, dt: float, solar: Sequence[float]) -> None:
        """One cell's control pass, on the arrays of its control view."""
        view = cell.control_view
        if cell.fleet is None:
            view.capture()
        cell.policy.control_fleet(t, dt, view, solar_w=solar[cell.index])

    def _emit_soc_crossings(self, t: float) -> None:
        """Emit an event whenever a battery crosses the low-SoC line.

        A downward crossing also opens the node's ``deep_discharge``
        span (caused by the crossing event), and the matching upward
        crossing closes it — the root interval most Fig.-9 provenance
        chains bottom out at.
        """
        if self._fleet is not None:
            socs = self._fleet.soc
        else:
            socs = np.array([node.battery.soc for node in self.cluster])
        now_below = socs < LOW_SOC_THRESHOLD
        nodes = self.cluster.nodes
        for i in (now_below != self._soc_below).nonzero()[0].tolist():
            node = nodes[i]
            down = bool(now_below[i])
            crossing = SocCrossingEvent(
                t=t,
                node=node.name,
                soc=float(socs[i]),
                threshold=LOW_SOC_THRESHOLD,
                direction="down" if down else "up",
            )
            BUS.emit(crossing)
            if down:
                SPANS.start(
                    "deep_discharge",
                    node=node.name,
                    t=t,
                    cause=crossing.eid,
                )
            else:
                SPANS.end("deep_discharge", node=node.name, t=t)
        self._soc_below = now_below

    def run(self) -> SimResult:
        """Execute the whole (remaining) trace and return the results."""
        self._begin()
        while self._step < self.steps_total:
            self.step_once()
        return self._collect()

    def run_cells(self) -> List[Union[SimResult, Exception]]:
        """Execute the whole (remaining) trace; per run, its result or
        the exception that ended it (or kept its cell from building)."""
        outcomes = iter(self._run_built_cells() if self.cells else ())
        return [
            next(outcomes) if error is None else error
            for error in self._build_errors
        ]

    def _run_built_cells(self) -> List[Union[SimResult, Exception]]:
        self._begin()
        while self._step < self.steps_total:
            self.step_once()
        if self._fleet is not None:
            self._fleet.materialize()
        if self._batched:
            self._split_recorder()
        return [
            cell.error if cell.error is not None else self._collect_cell(cell)
            for cell in self.cells
        ]

    def _split_recorder(self) -> None:
        """Give each cell's recorder its rows of the batch recorder: the
        same per-node sums its own record_arrays would have made."""
        batch = self._batch_recorder
        for cell, (lo, hi) in zip(self.cells, self._fleet.cells):
            recorder = cell.recorder
            recorder._soc_time[:] = batch._soc_time[lo:hi]
            recorder._low_soc_time[:] = batch._low_soc_time[lo:hi]
            recorder.total_time_s = batch.total_time_s

    # ------------------------------------------------------------------
    def _collect(self) -> SimResult:
        if BUS.enabled:
            # Flush any telemetry buffered for a partial final step.
            TELEMETRY.end_run()
        if self._fleet is not None:
            self._fleet.materialize()
        return self._collect_cell(self.cells[0])

    def _collect_cell(self, cell: _Cell) -> SimResult:
        cluster, recorder = cell.cluster, cell.recorder
        low_soc_time_s = recorder.low_soc_time_s
        nodes = []
        for node in cluster:
            metrics = node.tracker.since(RUN_MARK)
            nodes.append(
                NodeResult(
                    name=node.name,
                    fade_start=cell.fade_start[node.name],
                    fade_end=node.battery.capacity_fade,
                    discharged_ah=metrics.discharged_ah,
                    charged_ah=metrics.charged_ah,
                    metrics=metrics,
                    downtime_s=node.server.downtime_s,
                    low_soc_time_s=low_soc_time_s[node.name],
                    soc_distribution=recorder.soc_distribution(node.name),
                    final_soc=node.battery.soc,
                )
            )
        migrations = sum(vm.migrations for vm in cluster.vms.values())
        dvfs = sum(n.server.dvfs_transitions for n in cluster)
        policy = cell.policy
        return SimResult(
            policy_name=policy.name,
            duration_s=cell.trace.duration_s,
            throughput=cluster.total_progress(),
            nodes=nodes,
            total_downtime_s=sum(n.server.downtime_s for n in cluster),
            migrations=migrations,
            dvfs_transitions=dvfs,
            unserved_wh=sum(n.unserved_wh for n in cluster),
            feedback_wh=sum(n.feedback_wh for n in cluster),
            recorder=recorder,
            slowdown_onset_s=(
                policy.monitor.first_action_t if policy.monitor is not None else None
            ),
            dod_goals=policy.current_goals(),
        )


def batch_key(scenario: Scenario, trace: SolarTrace) -> Optional[Tuple]:
    """What runs must share to step as one batch, or ``None`` for a run
    that never batches: one on the reference stepper (the default). A
    batch runs the fleet kernels, so only runs that name the fleet
    stepper join one.

    The storage architecture, whose routing rules the batch's power path
    picks once, and every scenario field the engine reads per step
    rather than per node: the step and trace length, the control
    interval, the operating window and the ambient temperature curve.
    Everything else (node count, battery and server parameters, seed,
    utility budget, solar) may differ between cells.
    """
    if scenario.stepper != "fleet":
        return None
    return (
        scenario.architecture,
        scenario.dt_s,
        len(trace.power_w),
        scenario.control_interval_s,
        tuple(scenario.operating_window_h),
        scenario.ambient_mean_c,
        scenario.ambient_swing_c,
    )
