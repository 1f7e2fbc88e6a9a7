"""Perf observatory: benchmark/metric history with regression detection.

The end-to-end benchmark (``benchmarks/e2e``) judges one change against
its parent; it keeps no trajectory, so a slow drift over many commits
ships silently. This package adds the longitudinal layer: every
full-scale, untraced ``benchmarks/e2e/run.py --json`` document appends
one provenance-stamped record of its ``<workload>/<metric>`` series
(:func:`~repro.perf.ingest.e2e_record`) to an append-only,
schema-versioned JSONL history
(:class:`~repro.perf.store.PerfHistory`), and a regression detector
(:mod:`repro.perf.regression`) compares each metric's newest value to a
rolling same-host baseline (median ± MAD of the last K records) plus a
simple change-point scan over the full series.

Confirmed regressions surface as typed
:class:`~repro.obs.events.PerfRegressionEvent` objects on the obs bus
and as ``perf_regression`` alert-rule observations, so they flow through
the :class:`~repro.obs.alerts.AlertEngine` and the OpenMetrics exporter
like any other alert. The ``repro perf`` CLI family (``record`` /
``history`` / ``diff`` / ``check``) is the operator surface; CI restores
the history artifact, records a fresh end-to-end run, and gates on
``repro perf check``.
"""

from __future__ import annotations

from repro.perf.ingest import E2E_METRICS, e2e_record
from repro.perf.meta import collect_meta, default_history_path, host_fingerprint
from repro.perf.regression import (
    BASELINE_WINDOW,
    DEVIATION_THRESHOLD,
    MIN_BASELINE,
    BaselineStats,
    ChangePoint,
    CheckResult,
    MetricCheck,
    baseline_stats,
    change_point,
    check_history,
    metric_direction,
)
from repro.perf.report import (
    COLD_START_MESSAGE,
    render_check,
    render_diff,
    render_history,
    render_metric_list,
    sparkline,
)
from repro.perf.store import STORE_SCHEMA, PerfHistory, PerfRecord

__all__ = [
    "STORE_SCHEMA",
    "PerfHistory",
    "PerfRecord",
    "collect_meta",
    "host_fingerprint",
    "default_history_path",
    "E2E_METRICS",
    "e2e_record",
    "BASELINE_WINDOW",
    "DEVIATION_THRESHOLD",
    "MIN_BASELINE",
    "BaselineStats",
    "ChangePoint",
    "CheckResult",
    "MetricCheck",
    "baseline_stats",
    "change_point",
    "check_history",
    "metric_direction",
    "COLD_START_MESSAGE",
    "sparkline",
    "render_check",
    "render_diff",
    "render_history",
    "render_metric_list",
]
