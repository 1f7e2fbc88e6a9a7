"""Tests for campaign-scale observability.

Covers streaming P² quantiles and histogram merging
(`repro.obs.metrics`, which the runner uses to fold worker registries),
worker capture / parent replay (`repro.obs.capture`), and the
end-to-end agreement between a pooled traced campaign's fan-in trace
and its returned `CampaignReport`.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.campaign import RunSpec, run_campaign
from repro.campaign.cache import ResultCache
from repro.core.policies.factory import make_policy
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    CaptureSink,
    CellCapture,
    Histogram,
    MemorySink,
    MetricRegistry,
    P2Quantile,
    disable_observability,
    enable_observability,
    iter_events,
    replay_capture,
    validate_trace,
)
from repro.obs.events import (
    CellFinishEvent,
    CellStartEvent,
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
# End-to-end: pooled traced campaign vs its report
# ----------------------------------------------------------------------
class TestCampaignTraceAgreement:
    def _run(self, specs, tmp_path, cache, workers=2):
        path = str(tmp_path / "trace.jsonl")
        enable_observability(path)
        try:
            report = run_campaign(
                specs, n_workers=workers, cache=cache, retries=0
            )
        finally:
            disable_observability()
        return report, path

    def test_pooled_campaign_trace_matches_report(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report, path = self._run(specs, tmp_path, cache)
        assert validate_trace(path).ok
        events = list(iter_events(path))
        finishes = [e for e in events if e.kind == "cell_finish"]
        (done,) = [e for e in events if e.kind == "campaign_finish"]
        assert sum(e.ok for e in finishes) == report.n_executed
        assert sum(not e.ok for e in finishes) == len(report.failures)
        assert done.n_cells == len(report.outcomes)
        assert done.ok == report.n_executed
        assert done.failed == len(report.failures)
        assert done.cached == report.n_cache_hits
        assert done.executed == len(finishes)
        # Each executed cell's worker run fanned in to the parent trace.
        runs = Counter(e.kind for e in events)["run_start"]
        assert runs == done.executed == len(specs)

    def test_cached_rerun_emits_cache_hits_only(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(specs, n_workers=1, cache=cache, retries=0)
        tmp2 = tmp_path / "second"
        tmp2.mkdir()
        report, path = self._run(specs, tmp2, cache, workers=1)
        assert report.n_cache_hits == len(specs)
        events = list(iter_events(path))
        hits = [e for e in events if e.kind == "cell_cache_hit"]
        (done,) = [e for e in events if e.kind == "campaign_finish"]
        assert len(hits) == len(specs)
        assert done.executed == 0


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
