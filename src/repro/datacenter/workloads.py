"""Synthetic workload profiles for the paper's six applications.

The prototype deploys three HiBench workloads (Nutch Indexing, K-Means
Clustering, Word Count) and three CloudSuite workloads (Software Testing,
Web Serving, Data Analytics). BAAT consumes only coarse power/energy
profiles — Table 3 classifies demand into Large/Small power x More/Less
energy — so each application is modelled as a utilisation process with a
mean level, a diurnal/periodic component, and stochastic burst noise,
parameterised to land in the same Table-3 quadrant as the real
application:

====================  =========  ========  =============================
Workload              Power      Energy    Character
====================  =========  ========  =============================
nutch_indexing        Large      More      sustained crawl/index batches
kmeans_clustering     Large      Less      short, CPU-saturating bursts
word_count            Small      Less      brief MapReduce jobs
software_testing      Large      More      resource-hungry, long-running
web_serving           Small      More      diurnal request-driven load
data_analytics        Small      More      steady scan-heavy analytics
====================  =========  ========  =============================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one application's utilisation process.

    Attributes
    ----------
    name:
        Application label.
    mean_util:
        Long-run mean CPU utilisation contribution in [0, 1].
    burst_util:
        Additional utilisation reached at burst peaks.
    period_s:
        Period of the deterministic (diurnal or batch-cycle) component.
    burstiness:
        Std-dev of the stochastic component relative to ``mean_util``.
    duty_cycle:
        Fraction of each period the workload is active (batch jobs < 1).
    phase:
        Phase offset of the periodic component, as a fraction of period.
    """

    name: str
    mean_util: float
    burst_util: float
    period_s: float
    burstiness: float
    duty_cycle: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_util <= 1.0:
            raise ConfigurationError("mean_util must be in [0, 1]")
        if self.burst_util < 0 or self.mean_util + self.burst_util > 1.0 + 1e-9:
            raise ConfigurationError("mean_util + burst_util must be <= 1")
        if self.period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty_cycle must be in (0, 1]")

    def utilization_at(self, t: float, rng: Optional[np.random.Generator] = None) -> float:
        """Instantaneous utilisation demand at simulation time ``t``.

        Deterministic when ``rng`` is omitted (useful for tests); with an
        ``rng`` a Gaussian burst term is added.
        """
        cycle_pos = ((t / self.period_s) + self.phase) % 1.0
        if cycle_pos > self.duty_cycle:
            return 0.0
        # Raised-cosine activity profile across the active part of the cycle.
        wave = 0.5 - 0.5 * math.cos(2.0 * math.pi * cycle_pos / self.duty_cycle)
        util = self.mean_util + self.burst_util * wave
        if rng is not None and self.burstiness > 0:
            util += rng.normal(0.0, self.burstiness * self.mean_util)
        return max(0.0, min(1.0, util))

    def mean_power_w(self, idle_w: float, peak_w: float) -> float:
        """Expected power contribution on a server with the given envelope."""
        effective = self.mean_util + 0.5 * self.burst_util
        return effective * self.duty_cycle * (peak_w - idle_w)

    def energy_per_day_wh(self, idle_w: float, peak_w: float) -> float:
        """Expected daily dynamic energy on the given server envelope."""
        return self.mean_power_w(idle_w, peak_w) * 24.0


#: The six applications of section V-B, as (profile, Table-3 quadrant hint).
PAPER_WORKLOADS: Dict[str, WorkloadProfile] = {
    "nutch_indexing": WorkloadProfile(
        name="nutch_indexing",
        mean_util=0.62,
        burst_util=0.25,
        period_s=2.0 * SECONDS_PER_HOUR,
        burstiness=0.10,
        duty_cycle=0.9,
    ),
    "kmeans_clustering": WorkloadProfile(
        name="kmeans_clustering",
        mean_util=0.68,
        burst_util=0.30,
        period_s=0.5 * SECONDS_PER_HOUR,
        burstiness=0.08,
        duty_cycle=0.45,
    ),
    "word_count": WorkloadProfile(
        name="word_count",
        mean_util=0.38,
        burst_util=0.20,
        period_s=0.25 * SECONDS_PER_HOUR,
        burstiness=0.15,
        duty_cycle=0.5,
    ),
    "software_testing": WorkloadProfile(
        name="software_testing",
        mean_util=0.72,
        burst_util=0.25,
        period_s=4.0 * SECONDS_PER_HOUR,
        burstiness=0.05,
        duty_cycle=1.0,
    ),
    "web_serving": WorkloadProfile(
        name="web_serving",
        mean_util=0.45,
        burst_util=0.25,
        period_s=24.0 * SECONDS_PER_HOUR,
        burstiness=0.12,
        duty_cycle=1.0,
        phase=0.25,
    ),
    "data_analytics": WorkloadProfile(
        name="data_analytics",
        mean_util=0.50,
        burst_util=0.15,
        period_s=6.0 * SECONDS_PER_HOUR,
        burstiness=0.08,
        duty_cycle=1.0,
    ),
}


def standard_mix() -> Tuple[WorkloadProfile, ...]:
    """The full six-application mix, one VM each, in a stable order."""
    return tuple(PAPER_WORKLOADS[name] for name in sorted(PAPER_WORKLOADS))
