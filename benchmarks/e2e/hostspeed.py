"""How fast the host runs plain Python right now, to scale run times by.

The machines this benchmark runs on share their cores with other
machines' work: every instruction of this process runs 10-80% slower for
seconds to minutes at a time, and CPU time inflates exactly like wall
time. :func:`probe` times one fixed pass of the kind of work the
simulator does (attribute reads and writes on plain objects, float
arithmetic, dict updates, small NumPy array passes) using none of the
repository's code, so no change to the program moves it.

A run samples the probe before every repetition, after the last one and,
between simulation steps, every :data:`INTERVAL_S` while a repetition
runs (the repetition's time excludes those passes). Each repetition's
times are divided by :meth:`HostSpeed.factor`, its estimated slowdown
against the reference host, giving *reference seconds*: about what it
would have taken on the reference host at the probe's reference speed.
Raw times are reported beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

#: :func:`probe` on the reference host, a quiet shared 2-vCPU Intel Xeon
#: VM at 2.0 GHz with Python 3.11 and NumPy 2.4 (median of 200 passes).
REFERENCE_S = 0.00351

#: Probe passes per sample between repetitions.
PASSES = 4

#: Seconds between single probe passes inside a repetition: the host's
#: speed swings within seconds, so a repetition's own samples count.
INTERVAL_S = 0.25

#: The workloads slow by the probe's slowdown to this power: they spend
#: part of their time where outside load bites less than in the probe's
#: tight loop (file writes, NumPy). Over 80 runs of the four workloads at
#: probe slowdowns up to 2.3x, it gave the smallest worst-case spread of
#: run medians (9.3%, against 14.3% for full division).
SENSITIVITY = 0.75


class _Cell:
    def __init__(self, i: int):
        self.soc = 0.3 + (i % 7) * 0.1
        self.load = float(i % 11)
        self.up = i % 3 != 0


def probe() -> float:
    """Seconds one fixed pass of simulator-like work takes."""
    cells = [_Cell(i) for i in range(512)]
    levels = np.linspace(0.0, 1.0, 512)
    totals: dict = {}
    t0 = perf_counter()
    for _ in range(40):
        for cell in cells:
            if cell.up and cell.soc > 0.2:
                cell.soc -= cell.load * 1e-5
            else:
                cell.soc = min(1.0, cell.soc + 2e-3)
            totals[cell.up] = totals.get(cell.up, 0.0) + cell.soc
        levels = np.where(levels < 0.3, levels + 0.01, np.minimum(1.0, levels * 0.999))
        totals["high"] = totals.get("high", 0) + int(np.count_nonzero(levels > 0.5))
    return perf_counter() - t0


class HostSpeed:
    """The probe samples of one run: a batch between repetitions, and single
    passes every :data:`INTERVAL_S` while each repetition runs."""

    def __init__(self) -> None:
        probe()  # first-call costs stay out of the samples
        #: One batch of :data:`PASSES` probe times per :meth:`sample`.
        self.batches: List[List[float]] = []
        #: Per repetition, the probe times taken while it ran.
        self.inside: List[List[float]] = []
        self._due = 0.0

    def sample(self) -> None:
        self.batches.append([probe() for _ in range(PASSES)])

    def start_repetition(self) -> None:
        self.inside.append([])
        self._due = perf_counter() + INTERVAL_S

    def tick(self) -> float:
        """Probe if one is due; returns the seconds this call took, which
        the repetition subtracts from its time."""
        now = perf_counter()
        if now < self._due:
            return 0.0
        self.inside[-1].append(probe())
        end = perf_counter()
        self._due = end + INTERVAL_S
        return end - now

    def factor(self, i: int) -> float:
        """How much slower than on the reference host repetition ``i`` ran:
        the median of the samples just before, during and just after it,
        over :data:`REFERENCE_S`, to the power :data:`SENSITIVITY`."""
        samples = self.batches[i] + self.inside[i] + self.batches[i + 1]
        return (statistics.median(samples) / REFERENCE_S) ** SENSITIVITY

    @property
    def probe_s(self) -> float:
        """Median probe time over the whole run."""
        return statistics.median(
            t for group in self.batches + self.inside for t in group
        )
