"""Per-layer tracing for the end-to-end benchmark, from outside the program.

:class:`Tracer` swaps timing wrappers onto the public methods each layer
exposes (fleet kernels, servers and VMs, policies, power paths and
batteries, recorder, solar and scenario assembly, campaign runner and
cache, observability bus) and restores the originals on
:meth:`Tracer.uninstall`. Nothing under ``src/`` is edited.

Every wrapped call pushes a frame, so a caller's *self* time is its
duration minus the time its instrumented callees took. Coarse calls (a
few per cell or per control pass) are also kept as spans
``(name, start, end, parent)`` in memory and written out at the end; hot
calls (once per step, or once per node per step) are only aggregated
into count, total and self time, which keeps the traced run's memory
flat. A call to a name already on the stack (a subclass calling its
base method) passes straight through, so overrides are not counted
twice.

The power-path wrappers also check the physical invariants on every
step (see :class:`StepInvariants`); that checking time is kept out of
every total and self time and reported on its own.
"""

from __future__ import annotations

import json
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.battery.unit import BatteryUnit
from repro.campaign import cache as cache_module
from repro.campaign import runner as runner_module
from repro.campaign.spec import RunSpec
from repro.core.policies.base import Policy
from repro.datacenter.power_path import PowerFlows, PowerPath
from repro.datacenter.server import Server
from repro.datacenter.vm import VM
from repro.obs.bus import TraceBus
from repro.obs.telemetry import BatteryTelemetry
from repro.sim.fleet import FleetPowerPath, FleetState
from repro.sim.recorder import TraceRecorder
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTraceGenerator

#: Damage mechanisms that never heal; stratification is exempt because
#: a full charge legitimately undoes part of it.
IRREVERSIBLE = ("corrosion", "active_mass", "sulphation", "water_loss")

#: Absolute tolerance (W) of the per-step power balance checks.
FLOW_TOL_W = 1e-6

SPAN, HOT = "span", "hot"


def _targets() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, metric name, kind)`` for every wrapped call."""
    targets = [
        (FleetPowerPath, "step", "fleet.power_step", HOT),
        (FleetState, "derived", "fleet.derived", HOT),
        (FleetState, "materialize", "fleet.materialize", SPAN),
        (FleetState, "refresh_policy_view", "fleet.refresh_policy_view", SPAN),
        (FleetState, "max_discharge_power_i", "fleet.max_discharge_power_i", HOT),
        (FleetState, "terminal_voltage", "fleet.terminal_voltage", HOT),
        (Server, "advance_state", "server.advance_state", HOT),
        (Server, "power", "server.power", HOT),
        (Server, "utilization", "server.utilization", HOT),
        (Server, "power_on", "server.power_on", HOT),
        (Server, "brownout", "server.brownout", HOT),
        (VM, "advance", "vm.advance", HOT),
        (PowerPath, "step", "power_path.step", HOT),
        (BatteryUnit, "discharge", "battery.discharge", HOT),
        (BatteryUnit, "charge", "battery.charge", HOT),
        (BatteryUnit, "rest", "battery.rest", HOT),
        (TraceRecorder, "record", "recorder.record", HOT),
        (TraceRecorder, "record_arrays", "recorder.record", HOT),
        (SolarTraceGenerator, "days", "solar.days", SPAN),
        (Scenario, "build_cluster", "scenario.build_cluster", SPAN),
        (runner_module, "run_campaign", "campaign.run_campaign", SPAN),
        (RunSpec, "cache_key", "campaign.cache_key", SPAN),
        (RunSpec, "execute", "campaign.execute", SPAN),
        (cache_module.ResultCache, "get", "campaign.cache_get", SPAN),
        (cache_module.ResultCache, "put", "campaign.cache_put", SPAN),
        (TraceBus, "emit", "obs.emit", HOT),
        (BatteryTelemetry, "record_fleet_step", "obs.telemetry", HOT),
    ]
    # Subclasses override the base hooks, so every concrete class that
    # defines a hook gets its own wrapper (the name guard dedupes supers).
    for cls in _policy_classes():
        for method in ("place_vm", "control", "control_fleet", "on_day_start"):
            if method in vars(cls):
                targets.append((cls, method, f"policy.{method}", SPAN))
    return targets


def _policy_classes() -> List[type]:
    import repro.core.policies.factory  # noqa: F401  (imports every policy)

    out, todo = [], [Policy]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class StepInvariants:
    """Physical invariants checked on every power-path step.

    - the solar split balances: load + battery + feedback == available;
    - no node is over-served: solar + battery + utility <= demand;
    - irreversible damage never decreases, per battery.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.violations: List[str] = []
        self._damage: "weakref.WeakKeyDictionary[object, np.ndarray]" = (
            weakref.WeakKeyDictionary()
        )

    def _fail(self, message: str) -> None:
        message = f"step {self.steps}: {message}"
        if len(self.violations) < 20:
            self.violations.append(message)
        else:
            self.violations[-1] = f"... and more (last: {message})"

    def check(self, path: PowerPath, flows: PowerFlows) -> None:
        self.steps += 1
        split = (
            flows.solar_to_load_w + flows.solar_to_battery_w + flows.grid_feedback_w
        )
        if abs(split - flows.solar_available_w) > FLOW_TOL_W:
            self._fail(
                f"solar split {split!r} W != available "
                f"{flows.solar_available_w!r} W"
            )
        served = (
            flows.solar_to_load_w + flows.battery_to_load_w + flows.utility_to_load_w
        )
        if served > flows.demand_w + FLOW_TOL_W:
            self._fail(f"served {served!r} W > demand {flows.demand_w!r} W")
        damage = self._irreversible_damage(path)
        previous = self._damage.get(path)
        if previous is not None and previous.shape == damage.shape:
            if (damage < previous).any():
                self._fail("irreversible battery damage decreased")
        self._damage[path] = damage

    @staticmethod
    def _irreversible_damage(path: PowerPath) -> np.ndarray:
        fleet = getattr(path, "fleet", None)
        if fleet is not None:
            rows = [fleet.mech_names.index(name) for name in IRREVERSIBLE]
            return fleet.damage[rows].copy()
        return np.array(
            [
                [node.battery.aging.state.damage.get(name, 0.0) for name in IRREVERSIBLE]
                for node in path.cluster.nodes
            ]
        )


class Tracer:
    """Timing wrappers, in-memory spans and per-call aggregates.

    Each wrapped call charges its caller with everything it cost, wrapper
    bookkeeping included, so a caller's self time holds only its own
    code. The small residual the wrapper still adds to the caller (the
    call into the wrapper itself) is calibrated at :meth:`install` and
    subtracted per direct callee in :meth:`self_s`.
    """

    def __init__(self) -> None:
        #: name -> [calls, total_s, raw self_s, direct instrumented callees]
        self.stats: Dict[str, List[float]] = {}
        #: (name, start, end, parent span index or -1); None while open.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.invariants = StepInvariants()
        #: Seconds in the benchmark's own per-call hooks (invariant checks,
        #: counters); excluded from every total and self time.
        self.hook_s = 0.0
        #: Per-callee wrapper cost still visible to the caller (s).
        self.residual_s = 0.0
        #: fleet.derived calls that returned the memoized object again.
        self.derived_hits = 0
        #: policy.control_fleet passes fully handled on the arrays.
        self.fleet_handled = 0
        self.cache_hits = 0
        self.campaign_cells = 0
        # Open frames, innermost last (see _push).
        self._stack: List[list] = []
        self._guards: Dict[str, list] = {}
        self._last_derived: "weakref.WeakKeyDictionary[object, object]" = (
            weakref.WeakKeyDictionary()
        )
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; functions are also rebound where imported."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.residual_s = self._calibrate()
        for owner, attr, name, kind in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, kind, self._after_hook(name))
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_function(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace_function(self, original, wrapper) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name (``from repro.campaign import run_campaign``)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _calibrate(self, n: int = 20000, trials: int = 5) -> float:
        """Caller-visible cost of one wrapped method call with arguments,
        beyond the plain call (median of ``trials``)."""

        class Plain:
            def leaf(self, a, b):
                return a

        class Wrapped:
            leaf = self._wrap(Plain.leaf, "bench.calibrate", HOT, None)

        plain, wrapped = Plain(), Wrapped()
        extra = []
        for _ in range(trials):
            t0 = perf_counter()
            for _ in range(n):
                plain.leaf(1.0, None)
            plain_s = perf_counter() - t0
            frame = self._push(False)
            t0 = perf_counter()
            for _ in range(n):
                wrapped.leaf(1.0, None)
            seen_s = perf_counter() - t0 - frame[0]
            self._stack.pop()
            extra.append((seen_s - plain_s) / n)
        del self.stats["bench.calibrate"]
        return max(0.0, sorted(extra)[trials // 2])

    # ------------------------------------------------------------------
    def _push(self, is_span: bool) -> list:
        """Open a frame: [callee time, span index or -1, excluded time,
        direct callee count, parent span index]."""
        index = parent = -1
        if is_span:
            for frame in reversed(self._stack):
                if frame[1] >= 0:
                    parent = frame[1]
                    break
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index, 0.0, 0, parent]
        self._stack.append(frame)
        return frame

    def _pop(
        self, name: str, stat: list, frame: list, t0: float, t1: float,
        hook_s: float, t_in: float,
    ) -> None:
        """Close ``frame``: fold the call into ``stat`` and charge the
        caller with the whole cost since ``t_in``; ``hook_s`` (time in the
        benchmark's own after-call hook) counts in no total."""
        self._stack.pop()
        elapsed = t1 - t0
        stat[0] += 1
        stat[1] += elapsed - frame[2]
        stat[2] += elapsed - frame[0]
        stat[3] += frame[3]
        if frame[1] >= 0:
            self.spans[frame[1]] = (name, t0, t1, frame[4])
        if self._stack:
            caller = self._stack[-1]
            caller[0] += perf_counter() - t_in
            caller[2] += frame[2] + hook_s
            caller[3] += 1

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _wrap(self, fn, name: str, kind: str, after: Optional[Callable]):
        guard = self._guards.setdefault(name, [0])
        stat = self._stat(name)
        is_span = kind == SPAN
        push, pop = self._push, self._pop
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if guard[0]:
                return fn(*args, **kwargs)
            guard[0] = 1
            frame = push(is_span)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                guard[0] = 0
                hook_s = 0.0
                if ok and after is not None:
                    after(args, result)
                    hook_s = perf_counter() - t1
                    tracer.hook_s += hook_s
                pop(name, stat, frame, t0, t1, hook_s, t_in)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-side span around a block (a repetition, a figure)."""
        t_in = perf_counter()
        frame = self._push(True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._pop(name, self._stat(name), frame, t0, perf_counter(), 0.0, t_in)

    # ------------------------------------------------------------------
    def _after_hook(self, name: str) -> Optional[Callable]:
        return {
            "fleet.power_step": self._check_step,
            "power_path.step": self._check_step,
            "fleet.derived": self._count_derived,
            "policy.control_fleet": self._count_handled,
            "campaign.cache_get": self._count_cache_hit,
            "campaign.run_campaign": self._count_cells,
        }.get(name)

    def _check_step(self, args, result) -> None:
        self.invariants.check(args[0], result)

    def _count_derived(self, args, result) -> None:
        owner = args[0]
        if self._last_derived.get(owner) is result:
            self.derived_hits += 1
        self._last_derived[owner] = result

    def _count_handled(self, args, result) -> None:
        if result:
            self.fleet_handled += 1

    def _count_cache_hit(self, args, result) -> None:
        if result is not None:
            self.cache_hits += 1

    def _count_cells(self, args, result) -> None:
        self.campaign_cells += len(result.outcomes)

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0, 0))[0])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0, 0))[1])

    def self_s(self, name: str) -> float:
        """Total minus instrumented callees, wrapper residual removed."""
        calls, total, raw_self, callees = self.stats.get(name, (0, 0.0, 0.0, 0))
        return float(min(total, max(0.0, raw_self - callees * self.residual_s)))

    def write_spans(self, path: str) -> None:
        """Write every closed span as one JSON line, times in seconds from
        the first span's start; ``parent`` indexes the span list."""
        spans = [s for s in self.spans if s is not None]
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ----------------------------------------------------------------------
#: name -> unit of every per-layer metric a traced run reports.
LAYER_UNITS: Dict[str, str] = {
    "engine.steps": "count",
    "engine.control_s": "s",
    "engine.power_s": "s",
    "engine.advance_s": "s",
    "engine.record_s": "s",
    "engine.step_p50_ms": "ms",
    "engine.step_p99_ms": "ms",
    "fleet.power_step.calls": "count",
    "fleet.power_step.self_s": "s",
    "fleet.derived.calls": "count",
    "fleet.derived.total_s": "s",
    "fleet.derived.memo_hit_frac": "ratio",
    "fleet.materialize.calls": "count",
    "fleet.materialize.total_s": "s",
    "fleet.refresh_policy_view.total_s": "s",
    "fleet.max_discharge_power_i.calls": "count",
    "fleet.terminal_voltage.calls": "count",
    "server.advance_state.calls": "count",
    "server.advance_state.total_s": "s",
    "server.power.calls": "count",
    "server.power.total_s": "s",
    "server.utilization.calls": "count",
    "server.utilization.total_s": "s",
    "server.power_on.calls": "count",
    "server.brownout.calls": "count",
    "vm.advance.calls": "count",
    "vm.advance.total_s": "s",
    "policy.place_vm.calls": "count",
    "policy.place_vm.total_s": "s",
    "policy.control_fleet.calls": "count",
    "policy.control_fleet.self_s": "s",
    "policy.control_fleet.handled_frac": "ratio",
    "policy.control.calls": "count",
    "policy.control.self_s": "s",
    "policy.on_day_start.total_s": "s",
    "power_path.step.calls": "count",
    "power_path.step.self_s": "s",
    "battery.discharge.calls": "count",
    "battery.discharge.total_s": "s",
    "battery.charge.calls": "count",
    "battery.charge.total_s": "s",
    "battery.rest.calls": "count",
    "battery.rest.total_s": "s",
    "recorder.record.calls": "count",
    "recorder.record.total_s": "s",
    "solar.days.calls": "count",
    "solar.days.total_s": "s",
    "scenario.build_cluster.total_s": "s",
    "campaign.cells": "count",
    "campaign.cache_hit_frac": "ratio",
    "campaign.cache_key_s": "s",
    "campaign.cache_get_s": "s",
    "campaign.cache_put_s": "s",
    "campaign.execute_s": "s",
    "campaign.overhead_s": "s",
    "obs.events": "count",
    "obs.trace_bytes": "B",
    "obs.trace_bytes_per_node_step": "B",
    "obs.emit_s": "s",
    "obs.telemetry_s": "s",
    "obs.traced_over_untraced": "ratio",
    "bench.tracing_overhead": "ratio",
    "bench.check_s": "s",
}

_SELF = ("fleet.power_step", "power_path.step", "policy.control_fleet", "policy.control")
_TOTAL = (
    "fleet.derived", "fleet.materialize", "server.advance_state", "server.power",
    "server.utilization", "vm.advance", "policy.place_vm", "battery.discharge",
    "battery.charge", "battery.rest", "recorder.record", "solar.days",
)
_COUNT = (
    "fleet.max_discharge_power_i", "fleet.terminal_voltage", "server.power_on",
    "server.brownout",
)


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(
    tracer: Tracer,
    node_steps: int,
    trace_bytes: int,
    registry: dict,
    step_s: List[float],
) -> Dict[str, float]:
    """Per-layer values of one traced workload run (all but the two
    ratios to plain repetitions, which the caller adds).

    The per-call numbers come from the wrapped repetition (``tracer``,
    ``node_steps``, ``trace_bytes``). The engine's phase totals and step
    latencies come from a plain repetition, which the wrappers would
    otherwise inflate: ``registry`` is its :data:`~repro.obs.REGISTRY`
    snapshot (phase timers, event count) and ``step_s`` its step
    durations.
    """
    t = tracer
    phases = registry["histograms"]
    values: Dict[str, float] = {"engine.steps": len(step_s)}
    for phase in ("control", "power", "advance", "record"):
        values[f"engine.{phase}_s"] = float(
            phases.get(f"phase/{phase}", {}).get("total", 0.0)
        )
    for q in (50, 99):
        values[f"engine.step_p{q}_ms"] = (
            float(np.percentile(step_s, q)) * 1e3 if step_s else 0.0
        )
    for name in _SELF:
        values[f"{name}.calls"] = t.calls(name)
        values[f"{name}.self_s"] = t.self_s(name)
    for name in _TOTAL:
        values[f"{name}.calls"] = t.calls(name)
        values[f"{name}.total_s"] = t.total_s(name)
    for name in _COUNT:
        values[f"{name}.calls"] = t.calls(name)
    values["fleet.derived.memo_hit_frac"] = _frac(
        t.derived_hits, t.calls("fleet.derived")
    )
    values["fleet.refresh_policy_view.total_s"] = t.total_s("fleet.refresh_policy_view")
    values["policy.control_fleet.handled_frac"] = _frac(
        t.fleet_handled, t.calls("policy.control_fleet")
    )
    values["policy.on_day_start.total_s"] = t.total_s("policy.on_day_start")
    values["scenario.build_cluster.total_s"] = t.total_s("scenario.build_cluster")
    values["campaign.cells"] = t.campaign_cells
    values["campaign.cache_hit_frac"] = _frac(t.cache_hits, t.calls("campaign.cache_get"))
    for op in ("cache_key", "cache_get", "cache_put", "execute"):
        values[f"campaign.{op}_s"] = t.total_s(f"campaign.{op}")
    values["campaign.overhead_s"] = t.total_s("campaign.run_campaign") - t.total_s(
        "campaign.execute"
    )
    values["obs.events"] = int(registry["counters"].get("obs/events_total", 0))
    values["obs.trace_bytes"] = trace_bytes
    values["obs.trace_bytes_per_node_step"] = _frac(trace_bytes, node_steps)
    values["obs.emit_s"] = t.total_s("obs.emit")
    values["obs.telemetry_s"] = t.total_s("obs.telemetry")
    values["bench.check_s"] = t.hook_s
    return values
