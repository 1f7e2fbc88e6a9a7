"""The time-stepped simulation engine.

One :class:`Simulation` executes one policy against one scenario and one
solar trace:

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
from typing import Dict

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
from repro.sim.recorder import LOW_SOC_THRESHOLD, TraceRecorder
from repro.sim.results import NodeResult, SimResult
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Tracker mark labelling the start of the simulation (run-wide metrics).
RUN_MARK = "sim/run-start"


class Simulation:
    """Runs one policy over one scenario and solar trace."""

    def __init__(
        self,
        scenario: Scenario,
        policy: Policy,
        trace: SolarTrace,
        record_series: bool = False,
    ):
        if abs(trace.dt_s - scenario.dt_s) > 1e-9:
            raise ConfigurationError(
                f"trace dt ({trace.dt_s}s) must match scenario dt ({scenario.dt_s}s)"
            )
        self.scenario = scenario
        self.policy = policy
        self.trace = trace
        self.cluster = scenario.build_cluster()
        self.policy.bind(self.cluster, scenario=scenario)
        if scenario.architecture == "rack-pool":
            from repro.datacenter.rack import RackPowerPath

            self.power_path = RackPowerPath(
                self.cluster, utility_budget_w=scenario.utility_budget_w
            )
        elif scenario.stepper == "fleet":
            from repro.sim.fleet import FleetPowerPath

            self.power_path = FleetPowerPath(
                self.cluster, utility_budget_w=scenario.utility_budget_w
            )
        else:
            self.power_path = PowerPath(
                self.cluster, utility_budget_w=scenario.utility_budget_w
            )
        # Fleet mode keeps battery/tracker state in struct-of-arrays form
        # between steps; the engine materializes it back onto the objects
        # only at the boundaries that read them (policy hooks, collect).
        self._fleet = getattr(self.power_path, "fleet", None)
        if self._fleet is not None and self.policy.controller is not None:
            self.policy.controller.attach_fleet(self._fleet)
        self.recorder = TraceRecorder(
            [n.name for n in self.cluster], record_series=record_series
        )
        self._rng = spawn(scenario.seed, f"workload/{policy.name}")
        self._fade_start: Dict[str, float] = {}
        self._placed = False
        self._begun = False
        # Step state is defined from construction so steps_done and
        # external inspection are valid before _begin ever runs.
        self._step = 0
        self._last_draws: Dict[str, float] = {}
        self._soc_below = np.zeros(0, dtype=bool)
        self._phase_timers: StepPhaseTimers | None = None
        # Last admin window state written to the servers (None = never):
        # the per-node admin_off fan-out only runs on transitions.
        self._admin_in_window: bool | None = None

    # ------------------------------------------------------------------
    def deploy(self) -> None:
        """Place every scenario VM through the policy (once)."""
        if self._placed:
            return
        for vm in self.scenario.build_vms():
            self.policy.place_vm(vm)
        if self._fleet is not None:
            self._fleet.validate_vms(self.cluster)
            self._fleet.refresh_policy_view()
        self._placed = True

    def _begin(self) -> None:
        """One-time setup before stepping: deploy VMs, mark trackers.

        Guarded by an explicit flag — truthiness of ``_fade_start`` is
        not a begun-sentinel (it stays empty on an empty cluster, which
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
        for node in self.cluster:
            node.tracker.mark(RUN_MARK)
            self._fade_start[node.name] = node.battery.capacity_fade
            self._last_draws[node.name] = 0.0
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

        step = self._step
        solar_w = float(self.trace.power_w[step])
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
        if self._fleet is not None:
            self._fleet.set_ambient(ambient)
        else:
            for node in self.cluster:
                node.battery.thermal.ambient_c = ambient

        if step % steps_per_day == 0:
            day_index = step // steps_per_day
            if obs_on:
                BUS.emit(DayStartEvent(t=t, day_index=day_index))
            if timing and step > 0:
                REGISTRY.sample(t)
            if self._fleet is not None:
                self._fleet.materialize()
            self.policy.on_day_start(t)

        if self._admin_in_window is not in_window:
            for node in self.cluster:
                node.server.admin_off = not in_window
            if self._fleet is not None:
                self._fleet.set_admin_off(not in_window)
            self._admin_in_window = in_window

        # --- control phase -------------------------------------------
        if timing:
            t0 = perf_counter()
        if in_window and step % control_every == 0:
            # Fleet runs try the policy's array decision pass first; it
            # returns False whenever the pass decides per-node actions
            # (or observability) require the object path, which is rare
            # in steady state.
            handled = self._fleet is not None and self.policy.control_fleet(
                t, dt, self._fleet, solar_w=solar_w
            )
            if not handled:
                # Derive the DR draw signal here, at the only pass that
                # reads it: battery state is unchanged between the end of
                # the previous power phase and this control pass, so these
                # draws are bit-identical to refreshing them every step.
                if self._fleet is not None:
                    self._fleet.materialize()
                    self._last_draws = self._fleet.last_draw_powers()
                else:
                    self._last_draws = self._draw_powers()
                self.policy.control(t, dt, self._last_draws, solar_w=solar_w)
                if self._fleet is not None:
                    # The object pass may have parked, throttled, capped,
                    # or woken nodes; re-read the control-plane masks.
                    self._fleet.refresh_policy_view()
        if timing:
            t1 = perf_counter()
            self._phase_timers.control.observe(t1 - t0)
            t0 = t1

        # --- power-path phase ----------------------------------------
        flows = self.power_path.step(t, dt, solar_w, rng=self._rng)
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
        if in_window and self._fleet is not None:
            self._fleet.advance_vms(t, dt, self._rng)
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
        if self._fleet is not None:
            self.recorder.record_arrays(
                t, dt, flows, self._fleet.soc, self._fleet.last_current
            )
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

    def _draw_powers(self) -> Dict[str, float]:
        """Per-node battery draw (W) for the DR signal: each battery's
        last-step discharge current times its terminal voltage there."""
        draws = {}
        for node in self.cluster:
            current = max(0.0, node.battery.last_current_a)
            voltage = node.battery.terminal_voltage(current)
            draws[node.name] = current * max(voltage, 0.0)
        return draws

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

    # ------------------------------------------------------------------
    def _collect(self) -> SimResult:
        if BUS.enabled:
            # Flush any telemetry buffered for a partial final step.
            TELEMETRY.end_run()
        if self._fleet is not None:
            self._fleet.materialize()
        nodes = []
        for node in self.cluster:
            metrics = node.tracker.since(RUN_MARK)
            nodes.append(
                NodeResult(
                    name=node.name,
                    fade_start=self._fade_start[node.name],
                    fade_end=node.battery.capacity_fade,
                    discharged_ah=metrics.discharged_ah,
                    charged_ah=metrics.charged_ah,
                    metrics=metrics,
                    downtime_s=node.server.downtime_s,
                    low_soc_time_s=self.recorder.low_soc_time_s[node.name],
                    soc_distribution=self.recorder.soc_distribution(node.name),
                    final_soc=node.battery.soc,
                )
            )
        migrations = sum(vm.migrations for vm in self.cluster.vms.values())
        dvfs = sum(n.server.dvfs_transitions for n in self.cluster)
        return SimResult(
            policy_name=self.policy.name,
            duration_s=self.trace.duration_s,
            throughput=self.cluster.total_progress(),
            nodes=nodes,
            total_downtime_s=sum(n.server.downtime_s for n in self.cluster),
            migrations=migrations,
            dvfs_transitions=dvfs,
            unserved_wh=sum(n.unserved_wh for n in self.cluster),
            feedback_wh=sum(n.feedback_wh for n in self.cluster),
            recorder=self.recorder,
        )


def run_policy_on_trace(
    scenario: Scenario,
    policy: Policy,
    trace: SolarTrace,
) -> SimResult:
    """Convenience one-shot: build, run, and return the result."""
    return Simulation(scenario, policy, trace).run()
