"""Tests for campaign-scale observability.

Covers the PR-8 stack: streaming P² quantiles and histogram merging
(`repro.obs.metrics`), the follow-mode trace tailer
(`repro.obs.events.TraceTailer`), worker capture /
parent replay (`repro.obs.capture`), the `CampaignMonitor` rollup and
dashboard (`repro.obs.campaign_monitor`), and the end-to-end agreement
between a pooled traced campaign's `campaign_summary.json` and its
returned `CampaignReport`.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import RunSpec, run_campaign
from repro.campaign.cache import ResultCache
from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    CampaignMonitor,
    CaptureConfig,
    CaptureSink,
    CellCapture,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricRegistry,
    P2Quantile,
    TraceTailer,
    disable_observability,
    enable_observability,
    iter_events,
    parse_openmetrics,
    parse_telemetry,
    render_dashboard,
    replay_capture,
    run_captured,
    to_openmetrics,
    validate_trace,
    write_summary,
)
from repro.obs.events import (
    AlertEvent,
    CampaignFinishEvent,
    CampaignStartEvent,
    CellCacheHitEvent,
    CellFinishEvent,
    CellHealthEvent,
    CellRetryEvent,
    CellStartEvent,
    RunStartEvent,
    SpanEndEvent,
    SpanStartEvent,
)
from repro.obs.spans import SPANS


@pytest.fixture(autouse=True)
def _clean_obs_state():
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.enabled = False
    ALERTS.reset()
    SPANS.reset()
    yield
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.reset()
    SPANS.reset()


@pytest.fixture
def specs(tiny_scenario, one_sunny_day):
    """Three distinct, picklable cells (pool-eligible policy strings)."""
    return [
        RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy=name,
            label=f"{name}-cell",
        )
        for name in ("baat", "e-buff", "baat-s")
    ]


# ----------------------------------------------------------------------
# P2 streaming quantiles
# ----------------------------------------------------------------------
class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_reports_zero(self):
        assert P2Quantile(0.5).value == 0.0

    def test_exact_for_first_five_observations(self):
        q = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            q.observe(x)
        assert q.value == pytest.approx(3.0)
        q.observe(2.0)
        q.observe(4.0)
        assert q.value == pytest.approx(3.0)

    @pytest.mark.parametrize("target", [0.5, 0.95, 0.99])
    def test_tracks_known_distribution(self, target):
        # A deterministic shuffle of 0..999 scaled to [0, 1): the true
        # quantile of the stream is simply `target`.
        q = P2Quantile(target)
        n = 1000
        for i in range(n):
            q.observe(((i * 389) % n) / n)
        assert q.value == pytest.approx(target, abs=0.03)

    def test_constant_stream(self):
        q = P2Quantile(0.95)
        for _ in range(100):
            q.observe(7.0)
        assert q.value == pytest.approx(7.0)


class TestHistogramMerge:
    def test_merge_into_empty_is_exact(self):
        src = Histogram("x")
        for v in (1.0, 2.0, 6.0):
            src.observe(v)
        dst = Histogram("x")
        dst.merge(src.to_dict())
        assert dst.to_dict() == pytest.approx(src.to_dict())

    def test_merge_empty_snapshot_is_a_noop(self):
        dst = Histogram("x")
        dst.observe(1.0)
        before = dst.to_dict()
        dst.merge(Histogram("y").to_dict())
        assert dst.to_dict() == before

    def test_merge_accumulates_counts_and_extremes(self):
        a = Histogram("x")
        a.observe(1.0)
        b = Histogram("x")
        b.observe(10.0)
        a.merge(b.to_dict())
        d = a.to_dict()
        assert d["count"] == 2
        assert d["min"] == 1.0
        assert d["max"] == 10.0
        assert d["total"] == 11.0

    def test_registry_merge_snapshot(self):
        src = MetricRegistry()
        src.counter("c").inc(3.0)
        src.gauge("g").set(0.5)
        src.histogram("h").observe(2.0)
        dst = MetricRegistry()
        dst.counter("c").inc(1.0)
        dst.merge_snapshot(src.snapshot())
        snap = dst.snapshot()
        assert snap["counters"]["c"] == 4.0
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_samples_are_bounded(self):
        reg = MetricRegistry(sample_limit=3)
        for t in range(5):
            reg.sample(float(t))
        assert [s["t"] for s in reg.samples] == [2.0, 3.0, 4.0]


# ----------------------------------------------------------------------
# Follow-mode trace tailer
# ----------------------------------------------------------------------
def _emit_cells(sink, start, n):
    for i in range(start, start + n):
        sink.emit(CellStartEvent(t=float(i + 1), label=f"cell{i}"))


class TestTraceTailer:
    def test_waits_for_the_file_to_appear(self, tmp_path):
        path = str(tmp_path / "late.jsonl")
        tailer = TraceTailer(path)
        assert tailer.drain() == []
        sink = JsonlSink(path, flush_every=1)
        _emit_cells(sink, 0, 3)
        sink.close()
        assert [e.label for e in tailer.drain()] == ["cell0", "cell1", "cell2"]

    def test_incremental_drains_no_dup_no_drop(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path, flush_every=1)
        tailer = TraceTailer(path)
        emitted, seen = 0, []
        for batch in (3, 5, 2):
            _emit_cells(sink, emitted, batch)
            emitted += batch
            seen.extend(e.label for e in tailer.drain())
        sink.close()
        seen.extend(e.label for e in tailer.drain())
        assert seen == [f"cell{i}" for i in range(10)]

    def test_partial_line_is_held_until_complete(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "cell_start", "t": 1.0, "label": "a"}\n')
            fh.write('{"kind": "cell_st')
            fh.flush()
            tailer = TraceTailer(path)
            assert [e.label for e in tailer.drain()] == ["a"]
            assert tailer.drain() == []  # still incomplete: held, not parsed
            fh.write('art", "t": 2.0, "label": "b"}\n')
            fh.flush()
            assert [e.label for e in tailer.drain()] == ["b"]
            # A torn last line the writer never finishes is never returned.
            fh.write('{"kind": "cell_start", "t": 3.0, "lab')
            fh.flush()
            assert tailer.drain() == []
        assert tailer.drain() == []
        assert tailer.n_events == 2

    def test_matches_iter_events_after_the_fact(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        sink = JsonlSink(path, flush_every=1)
        _emit_cells(sink, 0, 17)
        sink.close()
        tailer = TraceTailer(path)
        drained = tailer.drain()
        replayed = list(iter_events(path))
        assert [e.label for e in drained] == [e.label for e in replayed]

    def test_skips_malformed_lines_unless_strict(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "cell_start", "t": 1.0, "label": "a"}\n')
            fh.write("not json at all\n")
            fh.write('{"kind": "no_such_kind", "t": 2.0}\n')
            fh.write('{"kind": "cell_start", "t": 3.0, "label": "b"}\n')
        assert [e.label for e in TraceTailer(path).drain()] == ["a", "b"]
        with pytest.raises((ValueError, ConfigurationError)):
            TraceTailer(path, strict=True).drain()


# ----------------------------------------------------------------------
# Worker capture and replay
# ----------------------------------------------------------------------
class TestCaptureReplay:
    def test_capture_sink_keeps_the_head(self):
        sink = CaptureSink(maxlen=3)
        for i in range(5):
            sink.emit(CellStartEvent(t=float(i), label=f"c{i}"))
        assert [e.label for e in sink.events] == ["c0", "c1", "c2"]
        assert sink.n_seen == 5
        assert sink.n_dropped == 2

    def _capture(self, events):
        return CellCapture(
            events=[
                {
                    **e.to_dict(),
                    "eid": e.eid,
                    "span_id": e.span_id,
                    "cause_id": e.cause_id,
                }
                for e in events
            ]
        )

    def test_replay_remaps_provenance_onto_parent_ids(self, tmp_path):
        capture = self._capture(
            [
                CellStartEvent(t=1.0, eid=7, label="w"),
                CellFinishEvent(t=2.0, eid=8, cause_id=7, span_id=0, label="w"),
            ]
        )
        mem = BUS.add_sink(MemorySink())
        try:
            n = replay_capture(capture, cell_span_id=99)
        finally:
            BUS.remove_sink(mem)
        assert n == 2
        first, second = mem.events
        assert first.eid != 7 and second.eid == first.eid + 1
        assert second.cause_id == first.eid
        # Span-less worker events anchor on the parent's cell span.
        assert first.span_id == 99
        assert second.span_id == 99

    def test_replay_skips_span_end_without_its_start(self):
        capture = self._capture(
            [SpanEndEvent(t=5.0, eid=42, span_id=41, span="deep_discharge")]
        )
        mem = BUS.add_sink(MemorySink())
        try:
            n = replay_capture(capture, cell_span_id=7)
        finally:
            BUS.remove_sink(mem)
        assert n == 0
        assert mem.events == []

    def test_replay_reparents_worker_spans_under_the_cell(self):
        capture = self._capture(
            [
                SpanStartEvent(
                    t=1.0, eid=10, span_id=10, span="deep_discharge",
                    node="node0",
                ),
                SpanEndEvent(
                    t=2.0, eid=11, span_id=10, span="deep_discharge",
                    node="node0",
                ),
            ]
        )
        mem = BUS.add_sink(MemorySink())
        try:
            replay_capture(capture, cell_span_id=77)
        finally:
            BUS.remove_sink(mem)
        start, end = mem.events
        assert start.parent_id == 77
        assert start.span_id == start.eid
        assert end.span_id == start.eid


# ----------------------------------------------------------------------
# CampaignMonitor rollups
# ----------------------------------------------------------------------
def _feed(monitor, events):
    for e in events:
        monitor.emit(e)


class TestCampaignMonitor:
    def test_progress_counters(self):
        mon = CampaignMonitor()
        assert mon.eta_s is None  # nothing known yet
        _feed(
            mon,
            [
                CampaignStartEvent(t=0.0, n_cells=4, n_workers=2),
                CellCacheHitEvent(t=0.1, label="a"),
                CellStartEvent(t=0.2, label="b"),
                CellStartEvent(t=0.2, label="c"),
                CellStartEvent(t=0.2, label="d"),
                CellRetryEvent(t=0.5, label="c", attempt=1),
                CellFinishEvent(t=1.0, label="b", ok=True, wall_s=0.8),
                CellFinishEvent(t=2.0, label="c", ok=False, wall_s=1.8),
            ],
        )
        assert mon.cached == 1
        assert mon.ok == 1
        assert mon.failed == 1
        assert mon.retries == 1
        assert mon.done == 3
        assert mon.in_flight == 1
        assert mon.remaining == 1
        assert mon.hit_rate == pytest.approx(0.25)
        assert mon.cells_per_s == pytest.approx(2 / 2.0)
        assert mon.eta_s == pytest.approx(1.0)
        _feed(
            mon,
            [
                CellFinishEvent(t=3.0, label="d", ok=True, wall_s=2.5),
                CampaignFinishEvent(
                    t=3.1, n_cells=4, ok=2, failed=1, cached=1, executed=3,
                    wall_s=3.1,
                ),
            ],
        )
        assert mon.finished
        assert mon.eta_s == 0.0
        summary = mon.summary()
        assert summary["cells"]["done"] == 4
        assert summary["campaign"]["wall_s"] == pytest.approx(3.1)
        assert summary["wall_time_s"]["count"] == 3

    def test_worker_run_timestamps_do_not_advance_the_clock(self):
        mon = CampaignMonitor()
        _feed(
            mon,
            [
                CampaignStartEvent(t=0.0, n_cells=2, n_workers=2),
                CellFinishEvent(t=0.5, label="a", ok=True, wall_s=0.4),
                # A replayed worker event deep into simulated time:
                RunStartEvent(t=86400.0, policy="baat"),
            ],
        )
        assert mon.t_last == pytest.approx(0.5)

    def test_health_rollup_tracks_worst_cell(self):
        mon = CampaignMonitor()
        _feed(
            mon,
            [
                CellHealthEvent(
                    t=1.0, label="mild", n_batteries=3, n_samples=30,
                    score_mean=0.2, score_max=0.3, worst="node1",
                    nat_max=0.01, ddt_max=0.0, dr_max=1.0, alerts=0,
                ),
                CellHealthEvent(
                    t=2.0, label="harsh", n_batteries=3, n_samples=30,
                    score_mean=0.4, score_max=0.9, worst="node2",
                    nat_max=0.05, ddt_max=0.2, dr_max=2.0, alerts=3,
                ),
            ],
        )
        health = mon.summary()["health"]
        assert health["cells_reported"] == 2
        assert health["batteries"] == 6
        assert health["score_max"] == pytest.approx(0.9)
        assert health["worst_cell"] == "harsh"
        assert health["worst_node"] == "node2"
        assert health["score_mean"] == pytest.approx(0.3)
        assert health["nat_max"] == pytest.approx(0.05)
        assert health["cell_alerts"] == 3

    def test_alert_lifecycle(self):
        mon = CampaignMonitor()
        fired = AlertEvent(t=1.0, rule="ddt_breach", node="node0",
                           severity="critical", value=0.4, threshold=0.25)
        _feed(mon, [fired])
        assert len(mon.active_alerts()) == 1
        _feed(
            mon,
            [AlertEvent(t=2.0, rule="ddt_breach", node="node0", cleared=True)],
        )
        assert mon.active_alerts() == []
        assert mon.alerts_fired == 1
        assert mon.alerts_cleared == 1

    def test_registry_exports_quantiles_to_openmetrics(self):
        mon = CampaignMonitor()
        _feed(
            mon,
            [
                CampaignStartEvent(t=0.0, n_cells=2, n_workers=1),
                CellFinishEvent(t=1.0, label="a", ok=True, wall_s=1.0),
                CellFinishEvent(t=2.0, label="b", ok=True, wall_s=3.0),
            ],
        )
        parsed = parse_openmetrics(to_openmetrics(mon.registry()))
        summary = parsed["summary"]["repro_campaign_cell_wall_s"]
        assert summary["count"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert 1.0 <= summary["p50"] <= 3.0
        assert parsed["gauge"]["repro_campaign_n_cells"] == 2.0

    def test_dashboard_renders_plain_and_ansi(self):
        mon = CampaignMonitor()
        _feed(
            mon,
            [
                CampaignStartEvent(t=0.0, n_cells=2, n_workers=2),
                CellFinishEvent(t=1.0, label="a", ok=True, wall_s=1.0),
            ],
        )
        plain = render_dashboard(mon.summary(), ansi=False)
        assert "1/2 cells" in plain
        assert "\x1b[" not in plain
        assert "\x1b[" in render_dashboard(mon.summary(), ansi=True)

    def test_write_summary_round_trips(self, tmp_path):
        mon = CampaignMonitor()
        _feed(mon, [CampaignStartEvent(t=0.0, n_cells=1, n_workers=1)])
        path = str(tmp_path / "campaign_summary.json")
        written = write_summary(mon, path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == written


# ----------------------------------------------------------------------
# End-to-end: pooled traced campaign vs its report
# ----------------------------------------------------------------------
class TestCampaignSummaryAgreement:
    def _run(self, specs, tmp_path, cache, workers=2):
        mon = CampaignMonitor()
        path = str(tmp_path / "trace.jsonl")
        enable_observability(path)
        BUS.add_sink(mon)
        try:
            report = run_campaign(
                specs, n_workers=workers, cache=cache, retries=0
            )
        finally:
            BUS.remove_sink(mon)
            disable_observability()
        return mon, report, path

    def test_pooled_campaign_summary_matches_report(
        self, specs, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        mon, report, path = self._run(specs, tmp_path, cache)
        summary = mon.summary()
        assert summary["cells"]["ok"] == report.n_executed
        assert summary["cells"]["failed"] == len(report.failures)
        assert summary["cells"]["cached"] == report.n_cache_hits
        assert summary["cells"]["done"] == len(report.outcomes)
        assert summary["cache"]["hit_rate"] == pytest.approx(
            report.n_cache_hits / len(report.outcomes)
        )
        wall = summary["wall_time_s"]
        assert wall["count"] == report.n_executed + len(report.failures)
        for key in ("p50", "p95", "p99"):
            assert wall["min"] <= wall[key] <= wall["max"]
        # The trace on disk is one coherent stream.
        assert validate_trace(path).ok
        # The monitor saw per-cell health from the worker fan-in.
        assert summary["health"]["cells_reported"] == report.n_executed
        assert summary["health"]["batteries"] > 0

    def test_cached_rerun_reports_full_hit_rate(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(specs, n_workers=1, cache=cache, retries=0)
        tmp2 = tmp_path / "second"
        tmp2.mkdir()
        mon, report, _ = self._run(specs, tmp2, cache, workers=1)
        assert report.n_cache_hits == len(report.outcomes)
        assert mon.summary()["cache"]["hit_rate"] == pytest.approx(1.0)
        assert mon.summary()["cells"]["executed"] == 0


# ----------------------------------------------------------------------
# The lean live-monitoring capture tier (--watch --capture monitoring)
# ----------------------------------------------------------------------
class TestMonitoringCapturePreset:
    def test_preset_shape(self):
        cfg = CaptureConfig.monitoring()
        assert cfg.metrics is False
        assert cfg.alerts and cfg.health
        parse_telemetry(cfg.telemetry)  # must be a valid tier spec

    def test_run_captured_keeps_worker_registry_dark(self):
        result, error, cap = run_captured(
            lambda: 42, CaptureConfig.monitoring()
        )
        assert (result, error) == (42, None)
        assert cap.metrics["counters"] == {}
        assert cap.metrics["histograms"] == {}

    def test_watch_without_trace_uses_lean_worker_capture(self, specs):
        # The monitor sink alone enables the bus, which selects the
        # traced worker fan-in protocol — no JSONL file involved.
        mon = BUS.add_sink(CampaignMonitor())
        try:
            report = run_campaign(
                specs,
                n_workers=2,
                cache=None,
                retries=0,
                capture=CaptureConfig.monitoring(),
            )
        finally:
            BUS.remove_sink(mon)
        assert not report.failures
        summary = mon.summary()
        assert summary["cells"]["done"] == len(specs)
        assert summary["cells"]["ok"] == len(specs)
        # Sampled battery telemetry still feeds per-cell health rollups.
        assert summary["health"]["cells_reported"] == len(specs)
        assert summary["health"]["batteries"] > 0
        wall = summary["wall_time_s"]
        assert wall["count"] == len(specs)


# ----------------------------------------------------------------------
# Satellite: no cache-miss accounting when caching is off
# ----------------------------------------------------------------------
class TestCacheMissAccountingDisabledCache:
    def test_no_miss_counter_or_storm_alert_with_cache_none(
        self, tiny_scenario, one_sunny_day
    ):
        specs = [
            RunSpec(
                scenario=tiny_scenario,
                trace=one_sunny_day,
                policy_factory=lambda: make_policy("e-buff"),
                label=f"cell{i}",
            )
            for i in range(4)
        ]
        enable_observability()
        try:
            run_campaign(specs, n_workers=1, cache=None, retries=0)
            miss_count = REGISTRY.counter("campaign/cache_misses").value
            storm = [
                a for a in ALERTS.history if a.rule == "cache_miss_storm"
            ]
        finally:
            disable_observability()
        assert miss_count == 0.0
        assert storm == []
