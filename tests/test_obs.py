"""Tests for the observability layer (`repro.obs`).

Covers the four guarantees PR 2 makes: events arrive in emission order,
JSONL traces round-trip losslessly into typed events, the metric
registry's snapshot math is exact, and a run with observability off
never touches the bus (the near-free disabled path).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.obs import (
    BUS,
    EVENT_TYPES,
    REGISTRY,
    DayStartEvent,
    DvfsCapEvent,
    JsonlSink,
    MemorySink,
    NullSink,
    RunStartEvent,
    SocCrossingEvent,
    TraceBus,
    TraceEvent,
    VMMigratedEvent,
    VMPlacedEvent,
    disable_observability,
    enable_observability,
    event_from_dict,
    iter_events,
    read_events,
)
from repro.obs.timers import STEP_PHASES, StepPhaseTimers, time_phase
from repro.sim.engine import Simulation


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with the layer fully off."""
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    yield
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()


# ----------------------------------------------------------------------
# Bus semantics
# ----------------------------------------------------------------------
class TestBus:
    def test_disabled_by_default(self):
        assert not TraceBus().enabled

    def test_real_sink_enables_null_sink_does_not(self):
        bus = TraceBus()
        null = bus.add_sink(NullSink())
        assert not bus.enabled, "null sink must not enable the bus"
        mem = bus.add_sink(MemorySink())
        assert bus.enabled
        bus.remove_sink(mem)
        assert not bus.enabled
        bus.remove_sink(null)

    def test_events_preserve_emission_order(self):
        bus = TraceBus()
        sink = bus.add_sink(MemorySink())
        emitted = [
            RunStartEvent(t=0.0, policy="baat", n_nodes=3, steps_total=10),
            VMPlacedEvent(t=0.0, vm="vm-1", node="node-1"),
            SocCrossingEvent(t=300.0, node="node-2", soc=0.39, threshold=0.40),
            DayStartEvent(t=86400.0, day_index=1),
        ]
        for ev in emitted:
            bus.emit(ev)
        assert list(sink.events) == emitted
        assert [e.t for e in sink.events] == sorted(e.t for e in emitted)
        assert bus.n_emitted == len(emitted)

    def test_fans_out_to_every_sink(self):
        bus = TraceBus()
        a, b = bus.add_sink(MemorySink()), bus.add_sink(MemorySink())
        bus.emit(DayStartEvent(t=0.0, day_index=0))
        assert len(a) == len(b) == 1

    def test_memory_sink_ring_drops_oldest(self):
        bus = TraceBus()
        sink = bus.add_sink(MemorySink(maxlen=3))
        for i in range(5):
            bus.emit(DayStartEvent(t=float(i), day_index=i))
        assert [e.day_index for e in sink.events] == [2, 3, 4]

    def test_capture_context_detaches(self):
        with BUS.capture() as sink:
            BUS.emit(DayStartEvent(t=0.0, day_index=0))
        assert len(sink) == 1
        assert not BUS.enabled

    def test_memory_sink_bounded_by_default(self):
        from repro.obs import DEFAULT_MEMORY_SINK_MAXLEN

        assert MemorySink().maxlen == DEFAULT_MEMORY_SINK_MAXLEN
        assert MemorySink(maxlen=None).maxlen is None  # opt-in unbounded
        with BUS.capture() as sink:
            assert sink.maxlen == DEFAULT_MEMORY_SINK_MAXLEN


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
class TestJsonlRoundTrip:
    def test_event_dict_round_trip_is_lossless(self):
        ev = VMMigratedEvent(t=1800.0, vm="vm-7", source="node-1", dest="node-3")
        assert event_from_dict(ev.to_dict()) == ev

    def test_every_registered_kind_round_trips(self):
        for kind, cls in EVENT_TYPES.items():
            ev = cls()
            back = event_from_dict(json.loads(ev.to_json()))
            assert type(back) is cls and back == ev, kind

    def test_jsonl_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        emitted = [
            RunStartEvent(t=0.0, policy="baat", n_nodes=3, steps_total=2),
            DvfsCapEvent(t=600.0, node="node-2", freq_index=1, freq=0.8),
            VMMigratedEvent(t=600.0, vm="vm-1", source="node-2", dest="node-1"),
        ]
        sink = JsonlSink(path)
        BUS.add_sink(sink)
        for ev in emitted:
            BUS.emit(ev)
        BUS.remove_sink(sink)
        sink.close()
        assert sink.n_written == len(emitted)
        assert read_events(path) == emitted

    def test_close_is_flush_idempotent(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.emit(DayStartEvent(t=0.0, day_index=0))
        sink.close()
        assert read_events(path) == [DayStartEvent(t=0.0, day_index=0)]
        sink.close()  # second close: no error, file unchanged
        assert read_events(path) == [DayStartEvent(t=0.0, day_index=0)]

    def test_close_leaves_borrowed_streams_open(self, tmp_path):
        with open(tmp_path / "trace.jsonl", "w", encoding="utf-8") as fh:
            sink = JsonlSink(fh)
            sink.emit(DayStartEvent(t=0.0, day_index=0))
            sink.close()  # flushes, but the caller owns the handle
            assert not fh.closed
            fh.write("")  # still usable
        assert read_events(str(tmp_path / "trace.jsonl")) == [
            DayStartEvent(t=0.0, day_index=0)
        ]

    def test_unknown_fields_dropped_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "day_start", "t": 0.0, "day_index": 2, "new": 1})
            + "\n"
            + json.dumps({"kind": "from_the_future", "t": 1.0})
            + "\n"
        )
        with pytest.raises(ConfigurationError):
            read_events(str(path))
        lenient = read_events(str(path), strict=False)
        assert lenient == [DayStartEvent(t=0.0, day_index=2)]


# ----------------------------------------------------------------------
# Torn final line: a writer killed mid-line
# ----------------------------------------------------------------------
class TestTornTrace:
    @pytest.fixture
    def torn(self, tiny_scenario, one_sunny_day, tmp_path):
        """A real BAAT trace with its last line cut mid-way."""
        path = str(tmp_path / "torn.jsonl")
        enable_observability(path)
        try:
            Simulation(tiny_scenario, make_policy("baat"), one_sunny_day).run()
        finally:
            disable_observability()
        complete = read_events(path)
        with open(path, "rb") as fh:
            data = fh.read()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        cut = last_start + (len(data) - last_start) // 2
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        return path, complete

    def test_lenient_replay_drops_only_the_torn_line(self, torn):
        path, complete = torn
        assert list(iter_events(path, strict=False)) == complete[:-1]
        with pytest.raises(ValueError):
            list(iter_events(path))

    def test_replay_commands_survive_and_validate_flags_it(self, torn, capsys):
        path, _ = torn
        assert main(["health", path]) == 0
        assert main(["explain", path]) == 0
        assert main(["trace", path]) == 0
        assert main(["trace", "validate", path]) == 1
        assert "bad JSON" in capsys.readouterr().out

    def test_malformed_line_before_the_end_still_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "day_start", "t": 0.0}\n'
            "not json\n"
            '{"kind": "day_start", "t": 1.0}'
        )
        with pytest.raises(ValueError):
            list(iter_events(str(path), strict=False))


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetricRegistry:
    def test_snapshot_math(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2.0)
        reg.gauge("soc").set(0.25)
        reg.gauge("soc").set(0.75)
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3.0}
        assert snap["gauges"] == {"soc": 0.75}
        assert snap["histograms"]["lat"] == {
            "count": 3,
            "total": 9.0,
            "mean": 3.0,
            "min": 1.0,
            "max": 6.0,
            "p50": 2.0,
            "p95": 6.0,
            "p99": 6.0,
            "buckets": {"1.0": 1, "2.0": 1, repr(2.0 ** (42 / 16)): 1},
        }
        # Nearest-rank read-outs: each is its bucket's upper bound clamped
        # into [min, max], within 2**(1/16) - 1 of the exact value.
        for key, pct in (("p50", 50), ("p95", 95), ("p99", 99)):
            exact = float(np.percentile([1.0, 2.0, 6.0], pct, method="inverted_cdf"))
            got = snap["histograms"]["lat"][key]
            assert exact <= got <= exact * 2.0 ** (1 / 16)

    def test_empty_histogram_reports_zeros(self):
        from repro.obs import Histogram

        h = Histogram("empty")
        assert h.to_dict() == {
            "count": 0,
            "total": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "buckets": {},
        }

    def test_handles_are_shared(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_sample_appends_timestamped_snapshots(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        reg.counter("steps").inc()
        reg.sample(86400.0)
        reg.counter("steps").inc()
        reg.sample(172800.0)
        assert [s["t"] for s in reg.samples] == [86400.0, 172800.0]
        assert [s["counters"]["steps"] for s in reg.samples] == [1.0, 2.0]

    def test_reset_clears_metrics_keeps_enabled(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        reg.enabled = True
        reg.counter("x").inc()
        reg.sample(0.0)
        reg.reset()
        assert reg.enabled
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.samples == []


# ----------------------------------------------------------------------
# Phase timers
# ----------------------------------------------------------------------
class TestPhaseTimers:
    def test_step_phase_timers_observe_into_registry(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        reg.enabled = True
        timers = StepPhaseTimers(reg)
        for name in STEP_PHASES:
            getattr(timers, name).observe(0.5)
        snap = reg.snapshot()
        for name in STEP_PHASES:
            assert snap["histograms"][f"phase/{name}"]["count"] == 1

    def test_time_phase_noop_when_disabled(self):
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        with time_phase(reg, "control"):
            pass
        assert reg.snapshot()["histograms"] == {}
        reg.enabled = True
        with time_phase(reg, "control"):
            pass
        assert reg.snapshot()["histograms"]["phase/control"]["count"] == 1


# ----------------------------------------------------------------------
# Disabled path: a full run must never touch the bus
# ----------------------------------------------------------------------
class TestDisabledPathNoOp:
    def test_disabled_run_never_emits(
        self, tiny_scenario, one_sunny_day, monkeypatch
    ):
        """With no sinks attached, a full simulation makes zero emit calls.

        ``TraceBus.emit`` is patched to raise, so any unguarded call site
        fails the run instead of silently costing allocations.
        """

        def _boom(self, event):
            raise AssertionError(f"emit on disabled bus: {event!r}")

        monkeypatch.setattr(TraceBus, "emit", _boom)
        sim = Simulation(tiny_scenario, make_policy("baat"), one_sunny_day)
        result = sim.run()
        assert result is not None
        assert sim.steps_done == sim.steps_total

    def test_disabled_registry_records_nothing(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("baat"), one_sunny_day)
        sim.run()
        snap = REGISTRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_steps_done_valid_before_run(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        assert sim.steps_done == 0


# ----------------------------------------------------------------------
# Instrumented run: the acceptance trio shows up with names and times
# ----------------------------------------------------------------------
class TestInstrumentedRun:
    def test_traced_run_produces_lifecycle_events(self, tiny_scenario, one_sunny_day):
        with BUS.capture() as sink:
            sim = Simulation(tiny_scenario, make_policy("baat"), one_sunny_day)
            sim.run()
        kinds = {e.kind for e in sink.events}
        assert "run_start" in kinds
        assert "vm_placed" in kinds
        placed = [e for e in sink.events if e.kind == "vm_placed"]
        assert all(e.node and e.vm for e in placed)
        # The trace_meta header leads, then run_start, then everything.
        assert sink.events[0].kind == "trace_meta"
        assert sink.events[1].kind == "run_start"

    def test_enable_observability_writes_jsonl(
        self, tiny_scenario, one_sunny_day, tmp_path
    ):
        path = str(tmp_path / "run.jsonl")
        sink = enable_observability(path)
        try:
            Simulation(tiny_scenario, make_policy("baat"), one_sunny_day).run()
        finally:
            disable_observability()
        assert sink is not None and sink.n_written > 0
        events = read_events(path)
        assert events and events[0].kind == "trace_meta"
        assert events[1].kind == "run_start"
        # Registry picked up recorder + phase metrics during the run.
        snap_keys = REGISTRY.snapshot()["histograms"].keys()
        assert {f"phase/{p}" for p in STEP_PHASES} <= set(snap_keys)

    def test_event_timestamps_monotonic_per_run(self, tiny_scenario, one_sunny_day):
        with BUS.capture() as sink:
            Simulation(tiny_scenario, make_policy("baat"), one_sunny_day).run()
        times = [e.t for e in sink.events]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# to_dict shape
# ----------------------------------------------------------------------
class TestEventShape:
    def test_kind_is_first_key(self):
        keys = list(VMPlacedEvent(t=1.0, vm="v", node="n").to_dict())
        assert keys[0] == "kind"

    def test_base_event_not_registered(self):
        # Only subclasses auto-register; the abstract base stays out.
        assert "event" not in EVENT_TYPES
