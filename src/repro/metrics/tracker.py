"""Online metric tracking for one battery node.

:class:`MetricsTracker` is the BAAT controller's view of one battery: it
folds each sensor sample (Table 2: current, voltage-derived SoC, time)
into a lifetime accumulator, supports *marks* so metrics can be computed
over arbitrary windows ("this day", "since the last scheduling decision"),
and exposes both lifetime and windowed :class:`~repro.metrics.snapshot.
AgingMetrics`.
"""

from __future__ import annotations

from typing import Dict

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError
from repro.metrics.accumulator import MetricsAccumulator
from repro.metrics.snapshot import AgingMetrics


class MetricsTracker:
    """Accumulates aging metrics for one battery from sensor samples."""

    def __init__(self, params: BatteryParams, name: str = "battery"):
        self.params = params
        self.name = name
        self.acc = MetricsAccumulator()
        self._marks: Dict[str, MetricsAccumulator] = {}
        #: Bumped every time any mark moves. Array-based readers (the
        #: fleet fast path) key their cached mark snapshots on this so a
        #: re-mark invalidates them without scanning accumulators.
        self.mark_version = 0

    def observe(self, soc: float, current: float, dt: float) -> None:
        """Fold one sample: SoC in [0, 1], signed current (A, + = out),
        duration in seconds."""
        self.acc.observe(soc, current, dt, self.params.reference_current)

    # ------------------------------------------------------------------
    # Marks and windows
    # ------------------------------------------------------------------
    def mark(self, label: str) -> None:
        """Record the current accumulator under ``label`` for later
        windowed queries."""
        self._marks[label] = self.acc.copy()
        self.mark_version += 1

    def mark_acc(self, label: str) -> MetricsAccumulator:
        """The frozen accumulator snapshot behind ``label``.

        Exposed (read-only by convention) so array-based metric readers
        can compute windows as ``live array - mark array`` without going
        through per-node :class:`AgingMetrics` construction.
        """
        if label not in self._marks:
            raise ConfigurationError(f"no mark named {label!r}")
        return self._marks[label]

    def since(self, label: str) -> AgingMetrics:
        """Metrics over the window from ``mark(label)`` to now."""
        if label not in self._marks:
            raise ConfigurationError(f"no mark named {label!r}")
        window = self.acc - self._marks[label]
        return self._metrics(window)

    def lifetime(self) -> AgingMetrics:
        """Metrics over the battery's entire observed history."""
        return self._metrics(self.acc)

    # ------------------------------------------------------------------
    def _metrics(self, acc: MetricsAccumulator) -> AgingMetrics:
        return AgingMetrics.from_accumulator(
            acc,
            lifetime_ah_throughput=self.params.lifetime_ah_throughput,
            reference_current=self.params.reference_current,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m = self.lifetime()
        return (
            f"MetricsTracker({self.name!r}, nat={m.nat:.3f}, cf={m.cf:.2f}, "
            f"pc={m.pc:.2f}, ddt={m.ddt:.2f})"
        )
