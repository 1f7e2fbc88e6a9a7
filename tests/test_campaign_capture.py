"""Tests for campaign-scale observability.

Covers bucketed histogram quantiles and merging (`repro.obs.metrics`,
which the runner uses to fold worker registries),
worker capture / parent replay (`repro.obs.capture`), and the
end-to-end agreement between a pooled traced campaign's fan-in trace
and its returned `CampaignReport`.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
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
# Bucketed histograms
# ----------------------------------------------------------------------
#: The read-out's stated relative error bound (16 buckets per octave).
BUCKET_REL_ERROR = 2.0 ** (1 / 16) - 1

PERCENTILES = (("p50", 50), ("p95", 95), ("p99", 99))


def _fed(values) -> Histogram:
    hist = Histogram("x")
    for v in values:
        hist.observe(float(v))
    return hist


def _lognormal(seed: int, n: int = 10_000) -> np.ndarray:
    # Step-phase-like latencies: median ~1 ms, tails spanning decades.
    return np.random.default_rng(seed).lognormal(mean=-7.0, sigma=1.5, size=n)


def _bimodal(seed: int, n: int = 10_000) -> np.ndarray:
    # Fast steps around 20 us plus a 10% slow mode around 5 ms.
    rng = np.random.default_rng(seed)
    fast = rng.normal(2e-5, 3e-6, size=n - n // 10)
    slow = rng.normal(5e-3, 1e-3, size=n // 10)
    return rng.permutation(np.abs(np.concatenate([fast, slow])))


class TestHistogramBuckets:
    @pytest.mark.parametrize("value", [3.7e-6, 0.123, 1.0, 86400.0 * 3])
    def test_single_sample_reads_back_exactly(self, value):
        d = _fed([value]).to_dict()
        assert (d["p50"], d["p95"], d["p99"]) == (value, value, value)
        assert sum(d["buckets"].values()) == 1

    def test_constant_stream_reads_back_exactly(self):
        d = _fed([7.3e-4] * 500).to_dict()
        assert (d["p50"], d["p95"], d["p99"]) == (7.3e-4, 7.3e-4, 7.3e-4)
        assert list(d["buckets"].values()) == [500]

    def test_underflow_and_nonpositive_values_share_the_first_bucket(self):
        d = _fed([-1.0, 0.0, 1e-12]).to_dict()
        assert len(d["buckets"]) == 1
        assert d["min"] == -1.0 and d["max"] == 1e-12
        assert d["p99"] == 1e-12  # clamped to max

    def test_overflow_reads_max(self):
        d = _fed([1e9, 2e9]).to_dict()
        assert list(d["buckets"]) == ["+Inf"]
        assert d["p50"] == 2e9 and d["p99"] == 2e9

    @pytest.mark.parametrize("make", [_lognormal, _bimodal], ids=["lognormal", "bimodal"])
    def test_quantiles_within_stated_bound(self, make):
        samples = make(seed=7)
        d = _fed(samples).to_dict()
        for key, pct in PERCENTILES:
            exact = float(np.percentile(samples, pct, method="inverted_cdf"))
            # One-sided: the read-out is its bucket's upper bound.
            assert exact <= d[key] <= exact * (1 + BUCKET_REL_ERROR), key

    @pytest.mark.parametrize("make", [_lognormal, _bimodal], ids=["lognormal", "bimodal"])
    def test_merge_equals_concatenated_samples(self, make):
        left, right = make(seed=1), make(seed=2)
        whole = _fed(np.concatenate([left, right])).to_dict()
        for via_json in (False, True):
            snap = _fed(right).to_dict()
            if via_json:
                snap = json.loads(json.dumps(snap))
            merged = _fed(left)
            merged.merge(snap)
            d = merged.to_dict()
            assert d["buckets"] == whole["buckets"]
            for key in ("count", "min", "max", "p50", "p95", "p99"):
                assert d[key] == whole[key], key
            # Only the float sum depends on summation order.
            assert math.isclose(d["total"], whole["total"], rel_tol=1e-12)


class TestHistogramMerge:
    def test_merge_into_empty_is_exact(self):
        src = Histogram("x")
        for v in (1.0, 2.0, 6.0):
            src.observe(v)
        dst = Histogram("x")
        dst.merge(src.to_dict())
        assert dst.to_dict() == src.to_dict()

    def test_merge_empty_snapshot_is_a_noop(self):
        for via_json in (False, True):
            empty = Histogram("y").to_dict()
            if via_json:
                empty = json.loads(json.dumps(empty))
            dst = _fed([1.0, 2.5, 4e-3])
            before = dst.to_dict()
            dst.merge(empty)
            assert dst.to_dict() == before
            blank = Histogram("z")
            blank.merge(empty)
            assert blank.to_dict() == Histogram("z").to_dict()

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
