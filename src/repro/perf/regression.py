"""Rolling-baseline regression detection over the perf history.

Each metric's newest value is compared to a robust baseline built from
the last :data:`BASELINE_WINDOW` records of the *same host fingerprint*
(numbers from different machines never baseline each other). The
baseline is median ± MAD — one outlier run cannot poison it the way a
mean/stdev would — and the MAD is floored at a fraction of the median so
a perfectly-stable series (MAD 0) does not turn measurement jitter into
an alert. A value regresses when it is both statistically far outside
the baseline (``deviation >= DEVIATION_THRESHOLD`` sigmas) *and*
practically worse (``>= MIN_REL_WORSENING`` relative), in the metric's
bad direction (:func:`metric_direction`).

Independently, :func:`change_point` scans the whole series for the split
that maximises the shift between segment medians — the "when did this
start" annotation for a drift that crept in over several commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.perf.ingest import E2E_METRICS
from repro.perf.store import PerfHistory, PerfRecord

#: Fewest same-host prior values a metric needs before it can be gated.
MIN_BASELINE = 3

#: Rolling window: baselines use at most this many trailing records.
BASELINE_WINDOW = 20

#: How many robust sigmas outside baseline counts as a regression.
#: Mirrored by the ``perf_regression`` alert rule in
#: :func:`repro.obs.alerts.default_rules`.
DEVIATION_THRESHOLD = 4.0

#: MAD -> sigma for normally-distributed noise.
MAD_SCALE = 1.4826

#: Sigma floor as a fraction of |median|: jitter below 5 % never fires.
REL_FLOOR = 0.05

#: A regression must also be at least this much worse in relative terms.
MIN_REL_WORSENING = 0.10


def metric_direction(name: str) -> Optional[str]:
    """``"higher"``/``"lower"`` = which way is *better*; ``None`` = ungated.

    A ``<workload>/<metric>`` series of :mod:`repro.perf.ingest` takes its
    metric's direction; any other name (series an older history recorded
    from other benches) is plotted but never gates a check.
    """
    parts = name.split("/")
    return E2E_METRICS.get(parts[1]) if len(parts) == 2 else None


# ----------------------------------------------------------------------
# Baseline statistics
# ----------------------------------------------------------------------
@dataclass
class BaselineStats:
    """Robust summary of a metric's trailing window."""

    median: float
    sigma: float
    n: int


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def baseline_stats(values: Sequence[float]) -> BaselineStats:
    """Median ± floored MAD-sigma of a window of prior values."""
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    sigma = max(mad * MAD_SCALE, REL_FLOOR * abs(med), 1e-12)
    return BaselineStats(median=med, sigma=sigma, n=len(values))


# ----------------------------------------------------------------------
# Change-point scan
# ----------------------------------------------------------------------
@dataclass
class ChangePoint:
    """The best split of a series into a before/after level shift."""

    index: int  # first point of the "after" segment
    before: float  # median of the left segment
    after: float  # median of the right segment
    score: float  # |after - before| in pooled robust sigmas


def change_point(
    values: Sequence[float],
    min_segment: int = MIN_BASELINE,
    min_score: float = DEVIATION_THRESHOLD,
) -> Optional[ChangePoint]:
    """Best level-shift split, or ``None`` if no split scores enough.

    Brute-force over all splits leaving ``min_segment`` points on each
    side; series here are tens of points, so O(n^2) is fine.
    """
    n = len(values)
    best: Optional[ChangePoint] = None
    for idx in range(min_segment, n - min_segment + 1):
        left = baseline_stats(values[:idx])
        right = baseline_stats(values[idx:])
        pooled = max(math.hypot(left.sigma, right.sigma) / math.sqrt(2.0), 1e-12)
        score = abs(right.median - left.median) / pooled
        if best is None or score > best.score:
            best = ChangePoint(
                index=idx, before=left.median, after=right.median, score=score
            )
    if best is not None and best.score >= min_score:
        return best
    return None


# ----------------------------------------------------------------------
# The check itself
# ----------------------------------------------------------------------
@dataclass
class MetricCheck:
    """One metric's newest value judged against its rolling baseline."""

    metric: str
    value: float
    median: float
    sigma: float
    deviation: float  # robust sigmas *worse* than baseline (<= 0 is fine)
    rel_change: float  # fractional worsening vs the baseline median
    direction: Optional[str]  # which way is better; None = informational
    n_baseline: int
    regressed: bool
    change: Optional[ChangePoint] = None


@dataclass
class CheckResult:
    """Outcome of one ``repro perf check`` over a candidate record."""

    candidate: Optional[PerfRecord]
    fingerprint: str
    checks: List[MetricCheck] = field(default_factory=list)
    no_baseline: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricCheck]:
        return [c for c in self.checks if c.regressed]

    @property
    def cold(self) -> bool:
        """True when nothing had a baseline to judge against."""
        return not self.checks

    @property
    def ok(self) -> bool:
        return not self.regressions


def _check_metric(
    metric: str,
    value: float,
    prior: Sequence[float],
    threshold: float,
) -> MetricCheck:
    stats = baseline_stats(prior)
    direction = metric_direction(metric)
    if direction == "higher":
        worse_by = stats.median - value
    else:  # "lower" and informational metrics share the sign convention
        worse_by = value - stats.median
    deviation = worse_by / stats.sigma
    rel_change = worse_by / max(abs(stats.median), 1e-12)
    regressed = (
        direction is not None
        and deviation >= threshold
        and rel_change >= MIN_REL_WORSENING
    )
    check = MetricCheck(
        metric=metric,
        value=value,
        median=stats.median,
        sigma=stats.sigma,
        deviation=deviation,
        rel_change=rel_change,
        direction=direction,
        n_baseline=stats.n,
        regressed=regressed,
    )
    if regressed:
        check.change = change_point(list(prior) + [value])
    return check


def check_history(
    history: PerfHistory,
    candidate: Optional[PerfRecord] = None,
    window: int = BASELINE_WINDOW,
    threshold: float = DEVIATION_THRESHOLD,
) -> CheckResult:
    """Judge a candidate record against the history's rolling baselines.

    Without an explicit ``candidate``, the newest history record is the
    candidate and everything before it (same fingerprint) the baseline —
    the CI shape, where the fresh run was just recorded. With one (e.g.
    freshly-extracted payload files), the whole same-fingerprint history
    is the baseline and nothing is appended.

    Cold paths — empty history, first record on a new host fingerprint,
    too few prior values — produce ``no_baseline`` entries instead of
    checks and never fail the result.
    """
    if candidate is None:
        latest = history.latest()
        if latest is None:
            return CheckResult(candidate=None, fingerprint="")
        fingerprint = latest.fingerprint
        records = history.records(fingerprint=fingerprint)
        baseline_records = records[:-1]
        candidate_metrics: Dict[str, float] = dict(latest.metrics)
        result = CheckResult(candidate=latest, fingerprint=fingerprint)
    else:
        fingerprint = candidate.fingerprint
        baseline_records = history.records(fingerprint=fingerprint)
        candidate_metrics = dict(candidate.metrics)
        result = CheckResult(candidate=candidate, fingerprint=fingerprint)

    for metric in sorted(candidate_metrics):
        prior = [
            r.metrics[metric] for r in baseline_records if metric in r.metrics
        ]
        prior = prior[-window:]
        if len(prior) < MIN_BASELINE:
            result.no_baseline.append(metric)
            continue
        result.checks.append(
            _check_metric(metric, candidate_metrics[metric], prior, threshold)
        )
    return result
