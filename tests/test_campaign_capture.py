"""Tests for campaign-scale observability.

Covers bucketed histogram quantiles (`repro.obs.metrics`), the
registry's bounded sample list, and the end-to-end agreement between a
traced campaign's trace and its returned `CampaignReport`: a campaign
that starts traced runs every cell in this process, whatever worker
count it asks for.
"""

from __future__ import annotations

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
    Histogram,
    MetricRegistry,
    disable_observability,
    enable_observability,
    iter_events,
    validate_trace,
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


class TestMetricRegistry:
    def test_samples_are_bounded(self):
        reg = MetricRegistry(sample_limit=3)
        for t in range(5):
            reg.sample(float(t))
        assert [s["t"] for s in reg.samples] == [2.0, 3.0, 4.0]


# ----------------------------------------------------------------------
# End-to-end: traced campaign vs its report
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

    def test_in_process_trace_matches_report(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report, path = self._run(specs, tmp_path, cache)
        assert validate_trace(path).ok
        events = list(iter_events(path))
        finishes = [e for e in events if e.kind == "cell_finish"]
        (start,) = [e for e in events if e.kind == "campaign_start"]
        (done,) = [e for e in events if e.kind == "campaign_finish"]
        # Asked for two workers, the traced campaign ran in-process.
        assert start.n_workers == 1
        assert report.n_workers == 1
        assert sum(e.ok for e in finishes) == report.n_executed
        assert sum(not e.ok for e in finishes) == len(report.failures)
        assert done.n_cells == len(report.outcomes)
        assert done.ok == report.n_executed
        assert done.failed == len(report.failures)
        assert done.cached == report.n_cache_hits
        assert done.executed == len(finishes)
        # Each executed cell's run wrote its own run_start to the trace.
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
