"""Tests for the battery telemetry (`repro.obs.telemetry`).

Covers the policy spec grammar, the columnar frame codec (quantization,
delta chains, roster handling), full and sampled frame emission on live
runs, trace validation of the `trace_meta` and `battery_frame` kinds,
and the bus/sink instrumentation counters.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.obs import (
    BUS,
    REGISTRY,
    TELEMETRY,
    FrameDecoder,
    FrameEncoder,
    JsonlSink,
    TelemetryPolicy,
    disable_observability,
    parse_telemetry,
    validate_trace,
)
from repro.obs.events import RunStartEvent
from repro.obs.telemetry import CUR_SCALE, SCHEMA_VERSION, SOC_SCALE, quantize
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


@pytest.fixture(autouse=True)
def _clean_obs_state():
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    TELEMETRY.set_policy(TelemetryPolicy())
    yield
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()


STEPS_PER_DAY = int(86400 / 300)


def _traced_day(telemetry, n_nodes=4, stepper="fleet", day=DayClass.CLOUDY):
    """One traced day on a small cluster; returns the captured events."""
    TELEMETRY.set_policy(parse_telemetry(telemetry))
    scenario = Scenario(n_nodes=n_nodes, dt_s=300.0, stepper=stepper)
    trace = scenario.trace_generator().day(day)
    with BUS.capture(maxlen=None) as sink:
        sim = Simulation(scenario, make_policy("baat"), trace)
        sim.run()
        return sim, list(sink.events)


# ----------------------------------------------------------------------
# Policy spec grammar
# ----------------------------------------------------------------------
class TestParseTelemetry:
    @pytest.mark.parametrize(
        "spec, every, nodes",
        [
            ("full", 1, None),
            ("sampled:15", 15, None),
            ("sampled:6:n1,n2", 6, ("n1", "n2")),
        ],
    )
    def test_good_specs(self, spec, every, nodes):
        policy = parse_telemetry(spec)
        assert policy.every == every
        assert policy.nodes == nodes

    @pytest.mark.parametrize(
        "spec",
        [
            "warp",
            "full:3",
            "events:2",
            "sampled",
            "sampled:zero",
            "sampled:0",
            "sampled:-2",
            "sampled:3: , ",
            "summary:none",
            "summary:0",
            # Retired tiers: per-node sample events and fleet summaries.
            "full-events",
            "events",
            "sampled-events:3",
            "summary",
            "summary:12",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_telemetry(spec)

    @pytest.mark.parametrize(
        "spec",
        ["full", "sampled:15", "sampled:3:n1,n2"],
    )
    def test_spec_round_trips(self, spec):
        assert parse_telemetry(spec).spec() == spec

    def test_default_policy_is_full_frames(self):
        assert TelemetryPolicy().spec() == "full"


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip_within_quantum(self):
        names = ["a", "b", "c"]
        encoder = FrameEncoder(names)
        decoder = FrameDecoder()
        rows = [
            ([0.913, 0.5, 0.99999653], [1.25, -0.75, 0.0]),
            ([0.912, 0.501, 0.99999653], [1.3, -0.8, 2.5]),
            ([0.910, 0.502, 0.91], [0.0, 0.0, -3.75]),
        ]
        for step, (soc, cur) in enumerate(rows):
            frame = encoder.encode(300.0 * step, 300.0, soc, cur)
            assert frame.seq == step
            assert frame.nodes == (",".join(names) if step == 0 else "")
            decoded = decoder.decode(frame)
            assert [d[0] for d in decoded] == names
            for (_, got_soc, got_cur), want_soc, want_cur in zip(decoded, soc, cur):
                assert got_soc == pytest.approx(want_soc, abs=0.5 / SOC_SCALE)
                assert got_cur == pytest.approx(want_cur, abs=0.5 / CUR_SCALE)

    def test_quantized_values_round_trip_exactly(self):
        encoder = FrameEncoder(["a"])
        decoder = FrameDecoder()
        soc = 12345678 / SOC_SCALE  # representable exactly at the quantum
        cur = -4250000 / CUR_SCALE
        (_, got_soc, got_cur), = decoder.decode(
            encoder.encode(0.0, 300.0, [soc], [cur])
        )
        assert got_soc == soc
        assert got_cur == cur

    def test_quantize_matches_builtin_round(self):
        # Half-quantum ties round to even, negative zero to 0, like round().
        values = [
            0.0, -0.0, 0.5 / SOC_SCALE, 1.5 / SOC_SCALE, 2.5 / SOC_SCALE,
            -0.5 / SOC_SCALE, -2.5 / SOC_SCALE, 0.1, 0.99999653, 1.0,
            -3.75, 12.345678951,
        ]
        for scale in (SOC_SCALE, CUR_SCALE):
            want = [int(round(v * scale)) for v in values]
            assert quantize(values, scale).tolist() == want

    def test_roster_omitted_from_wire_after_first_frame(self):
        encoder = FrameEncoder(["a", "b"])
        first = encoder.encode(0.0, 300.0, [0.9, 0.8], [1.0, 2.0])
        second = encoder.encode(300.0, 300.0, [0.9, 0.8], [1.0, 2.0])
        assert "nodes" in first.to_dict()
        assert "nodes" not in second.to_dict()  # OMIT_EMPTY_FIELDS
        # Steady state deltas are all zero -> tiny wire form.
        assert second.to_dict()["soc"] == "0,0"

    def test_decode_before_roster_rejected(self):
        encoder = FrameEncoder(["a"])
        encoder.encode(0.0, 300.0, [0.9], [1.0])
        orphan = encoder.encode(300.0, 300.0, [0.9], [1.0])
        with pytest.raises(ConfigurationError):
            FrameDecoder().decode(orphan)

    def test_column_mismatch_rejected(self):
        encoder = FrameEncoder(["a", "b"])
        frame = encoder.encode(0.0, 300.0, [0.9, 0.8], [1.0, 2.0])
        bad = FrameEncoder(["a", "b", "c"]).encode(
            0.0, 300.0, [0.9, 0.8, 0.7], [1.0, 2.0, 3.0]
        )
        decoder = FrameDecoder()
        decoder.decode(frame)
        object.__setattr__(bad, "nodes", "")  # mid-run frame, wrong width
        with pytest.raises(ConfigurationError):
            decoder.decode(bad)


# ----------------------------------------------------------------------
# Frame emission on live runs
# ----------------------------------------------------------------------
class TestTierEmission:
    @pytest.mark.parametrize("stepper", ["reference", "fleet"])
    def test_full_frames_one_per_step(self, stepper):
        _, events = _traced_day("full", stepper=stepper)
        frames = [e for e in events if e.kind == "battery_frame"]
        assert len(frames) == STEPS_PER_DAY
        assert frames[0].nodes and frames[0].seq == 0
        assert [f.seq for f in frames] == list(range(STEPS_PER_DAY))

    @pytest.mark.parametrize("stepper", ["reference", "fleet"])
    def test_sampled_events_period_and_dt(self, stepper):
        every = 4
        _, events = _traced_day(f"sampled:{every}", stepper=stepper)
        frames = [e for e in events if e.kind == "battery_frame"]
        assert len(frames) == STEPS_PER_DAY // every
        assert all(f.n == 4 for f in frames)
        # dt is stretched to the sampling window so integrals survive.
        assert all(f.dt == 300.0 * every for f in frames)

    def test_sampled_node_subset(self):
        _, events = _traced_day("sampled:2:node0,node2")
        frames = [e for e in events if e.kind == "battery_frame"]
        decoder = FrameDecoder()
        for frame in frames:
            assert [node for node, _, _ in decoder.decode(frame)] == ["node0", "node2"]

    def test_trace_meta_header_reflects_policy(self):
        _, events = _traced_day("sampled:6")
        meta = events[0]
        assert meta.kind == "trace_meta"
        assert meta.schema == SCHEMA_VERSION
        assert meta.telemetry == "sampled:6"
        assert meta.stepper == "fleet"
        assert meta.n_nodes == 4
        assert events[1].kind == "run_start"


# ----------------------------------------------------------------------
# Trace validation of the header and frame kinds
# ----------------------------------------------------------------------
class TestFrameValidation:
    def _write(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return str(path)

    META = {
        "kind": "trace_meta", "t": 0.0, "schema": SCHEMA_VERSION,
        "telemetry": "full", "stepper": "fleet", "n_nodes": 2,
    }
    RUN = {"kind": "run_start", "t": 0.0, "policy": "baat"}
    FRAME0 = {
        "kind": "battery_frame", "t": 300.0, "dt": 300.0, "n": 2,
        "seq": 0, "nodes": "a,b", "soc": "90000000,80000000",
        "cur": "1000000,-500000",
    }
    FRAME1 = {
        "kind": "battery_frame", "t": 600.0, "dt": 300.0, "n": 2,
        "seq": 1, "soc": "-1,2", "cur": "0,0",
    }

    def test_valid_frame_chain_passes(self, tmp_path):
        path = self._write(
            tmp_path, [self.META, self.RUN, self.FRAME0, self.FRAME1]
        )
        result = validate_trace(path)
        assert result.ok, [str(v) for v in result.violations]
        assert result.n_runs == 1

    def test_schema_mismatch_is_a_violation(self, tmp_path):
        meta = dict(self.META, schema=SCHEMA_VERSION + 1)
        path = self._write(tmp_path, [meta, self.RUN])
        result = validate_trace(path)
        assert any("schema" in v.message for v in result.violations)

    def test_frame_before_roster_is_a_violation(self, tmp_path):
        path = self._write(tmp_path, [self.META, self.RUN, self.FRAME1])
        result = validate_trace(path)
        assert any("roster" in v.message for v in result.violations)

    def test_seq_gap_is_a_violation(self, tmp_path):
        skipped = dict(self.FRAME1, seq=3, t=1200.0)
        path = self._write(tmp_path, [self.META, self.RUN, self.FRAME0, skipped])
        result = validate_trace(path)
        assert any("delta chain" in v.message for v in result.violations)

    def test_column_width_mismatch_is_a_violation(self, tmp_path):
        bad = dict(self.FRAME1, soc="-1,2,3")
        path = self._write(tmp_path, [self.META, self.RUN, self.FRAME0, bad])
        result = validate_trace(path)
        assert any("column" in v.message for v in result.violations)

    def test_run_start_resets_frame_state(self, tmp_path):
        # A second run must re-carry the roster; chains do not span runs.
        path = self._write(
            tmp_path,
            [self.META, self.RUN, self.FRAME0, self.FRAME1,
             self.RUN, self.FRAME1],
        )
        result = validate_trace(path)
        assert any("roster" in v.message for v in result.violations)


# ----------------------------------------------------------------------
# Bus and sink instrumentation
# ----------------------------------------------------------------------
class TestBusInstrumentation:
    def test_per_kind_counters(self):
        REGISTRY.enabled = True
        with BUS.capture():
            BUS.emit(RunStartEvent(t=0.0, policy="baat"))
            BUS.emit(RunStartEvent(t=0.0, policy="e-buff"))
        assert REGISTRY.counter("obs/events_total").value == 2
        assert REGISTRY.counter("obs/events/run_start").value == 2

    def test_sink_bytes_counter(self, tmp_path):
        REGISTRY.enabled = True
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        BUS.add_sink(sink)
        try:
            for i in range(5):
                BUS.emit(RunStartEvent(t=0.0, policy=f"p{i}"))
        finally:
            BUS.remove_sink(sink)
            sink.close()
        on_disk = os.path.getsize(path)
        assert sink.bytes_written == on_disk > 0
        assert REGISTRY.counter("obs/sink_bytes").value == on_disk
