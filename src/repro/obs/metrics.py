"""Process-local metric registry: counters, gauges, histograms.

Complements the event bus: events answer *what happened and when*, the
registry answers *how much and how fast* — step-phase latencies, action
counts, cache hit rates — without storing one record per occurrence.

Like the bus, the module-level :data:`REGISTRY` is disabled by default
and instrumented code guards on ``REGISTRY.enabled`` before touching it,
so the recording path costs nothing when observability is off. Metric
objects themselves are live handles: fetch them once (``registry.
counter("x")``) and call ``inc``/``set``/``observe`` on the handle in
hot loops.

:meth:`MetricRegistry.sample` folds the current values into a
timestamped snapshot list — the engine samples at day boundaries, giving
the periodic series the paper's per-day analyses need. The list is
bounded (:data:`DEFAULT_SAMPLE_LIMIT`) so week-long campaigns cannot
grow it without limit; the newest samples win.

Histograms count observations in fixed log-spaced buckets (16 per
octave, see :class:`Histogram`) and read p50/p95/p99 from the counts to
within ~4.4% — constant memory and one ``bisect`` per observation,
without ever holding samples.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Optional

#: Cap on the registry's timestamped snapshot list (day boundaries for a
#: single run, rollup points for campaigns). Oldest entries are dropped
#: first; 4096 day-samples is > 11 simulated years.
DEFAULT_SAMPLE_LIMIT = 4096

#: Histogram bucket upper bounds: 16 per octave, 2**-24 s (~6e-8 s)
#: through 2**27 s (~1.3e8 s, about four years), then ``inf`` for the
#: overflow bucket. Bucket ``i`` holds the values in
#: ``(_BOUNDS[i-1], _BOUNDS[i]]``.
_BOUNDS = [2.0 ** (k / 16) for k in range(-24 * 16, 27 * 16 + 1)] + [float("inf")]

#: Each bucket's key in ``to_dict`` and its OpenMetrics ``le`` label:
#: the ``repr`` of its upper bound, ``"+Inf"`` for the overflow bucket.
_KEYS = tuple(repr(b) for b in _BOUNDS[:-1]) + ("+Inf",)

#: The percentiles every histogram reads out (keys in ``to_dict``).
_PERCENTILES = (("p50", 50), ("p95", 95), ("p99", 99))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value (set semantics)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values in fixed log-spaced buckets.

    Keeps count/sum/min/max plus one count per bucket, never the
    samples, so week-long campaigns hold constant memory. The layout is
    fixed, with no knob.

    - *Range.* 16 buckets per octave with upper bounds ``2**(k/16)``,
      from 2**-24 s (~6e-8 s, below the engine's sub-microsecond phase
      stamps) to 2**27 s (~1.3e8 s, above multi-day simulated
      ``span/*`` durations). A bucket holds the values in
      ``(lower, upper]``, the OpenMetrics ``le`` convention.
    - *Underflow, overflow, values <= 0.* Every value at or below the
      lowest bound, zero and negatives included, lands in the first
      bucket. Values above the highest bound land in one overflow
      bucket whose upper bound is ``+Inf``. Both still feed
      count/sum/min/max exactly.
    - *Quantiles.* p50/p95/p99 use the nearest-rank rule over the
      cumulative counts: the ``ceil(p * count / 100)``-th smallest value
      lies in the first bucket whose cumulative count reaches that
      rank. The read-out is that bucket's upper bound (``max`` for the
      overflow bucket), clamped into ``[min, max]``. So a single sample
      or a constant stream reads back exactly.
    - *Error.* Inside the range the read-out is never below the true
      nearest-rank value and at most ``2**(1/16) - 1`` (~4.4%) above
      it. In the first bucket the error is absolute, at most the lowest
      bound minus ``min``; in the overflow bucket the read-out is
      ``max``.
    """

    __slots__ = ("name", "count", "total", "min", "max", "counts")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.counts = [0] * len(_KEYS)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """count/total/mean/min/max, p50/p95/p99 and the nonzero buckets.

        ``buckets`` maps each nonzero bucket's key — the ``repr`` of its
        upper bound, ``"+Inf"`` for the overflow bucket — to its own
        (not cumulative) count, in ascending bound order.
        """
        count = self.count
        out: Dict[str, Any] = {
            "count": count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if count else 0.0,
            "max": self.max if count else 0.0,
        }
        lo, hi = out["min"], out["max"]
        ranks = [
            (key, max(1, -(-count * pct // 100)))
            for key, pct in _PERCENTILES
        ]
        for key, _ in ranks:
            out[key] = 0.0
        buckets: Dict[str, int] = {}
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            buckets[_KEYS[i]] = n
            cumulative += n
            while ranks and cumulative >= ranks[0][1]:
                out[ranks.pop(0)[0]] = min(max(_BOUNDS[i], lo), hi)
        out["buckets"] = buckets
        return out


class MetricRegistry:
    """Named metric store with periodic snapshot sampling."""

    def __init__(self, sample_limit: Optional[int] = DEFAULT_SAMPLE_LIMIT) -> None:
        self.enabled: bool = False
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._samples: Deque[Dict[str, Any]] = deque(maxlen=sample_limit)

    @property
    def samples(self) -> List[Dict[str, Any]]:
        """Timestamped snapshots recorded by :meth:`sample`, oldest first.

        Bounded (``sample_limit``, newest win) so long campaigns cannot
        grow the registry without limit.
        """
        return list(self._samples)

    # ------------------------------------------------------------------
    # Get-or-create handles
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name)
            return h

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of every metric's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def sample(self, t: float) -> Dict[str, Any]:
        """Record (and return) a timestamped snapshot."""
        snap = {"t": t, **self.snapshot()}
        self._samples.append(snap)
        return snap

    def reset(self) -> None:
        """Drop every metric and sample (the ``enabled`` flag persists)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._samples.clear()


#: The process-wide registry instrumented modules record into.
REGISTRY = MetricRegistry()
