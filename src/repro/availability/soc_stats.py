"""Low-SoC exposure statistics (Fig. 18).

"The key aging factor that directly correlates with server availability
is deep discharge time (DDT) ... datacenter[s] must leave 2 minutes of
reserve capacity in UPS battery for high availability. A low SoC means
less reserved energy." The availability comparison therefore reduces to
the statistics of low-SoC residence: how long, per scheme, the worst
battery sits below the 40 % line (single-point-of-failure exposure).
Fig. 19's SoC distribution is read off each node's result
(:attr:`~repro.sim.results.NodeResult.soc_distribution`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import reduction_percent
from repro.errors import ConfigurationError
from repro.sim.results import SimResult


@dataclass(frozen=True)
class AvailabilityStats:
    """Low-SoC exposure summary for one run."""

    policy_name: str
    worst_low_soc_fraction: float
    mean_low_soc_fraction: float
    unserved_wh: float
    downtime_s: float


def low_soc_stats(result: SimResult) -> AvailabilityStats:
    """Extract Fig.-18 statistics from one run."""
    if result.duration_s <= 0:
        raise ConfigurationError("result covers no time")
    fractions = [n.low_soc_time_s / result.duration_s for n in result.nodes]
    return AvailabilityStats(
        policy_name=result.policy_name,
        worst_low_soc_fraction=max(fractions),
        mean_low_soc_fraction=sum(fractions) / len(fractions),
        unserved_wh=result.unserved_wh,
        downtime_s=result.total_downtime_s,
    )


def availability_improvement(baseline: SimResult, improved: SimResult) -> float:
    """Percent reduction in the worst node's low-SoC residence.

    This is the paper's "+47 % battery availability, based on the
    statistics of low-SoC duration of the worst-case battery node".
    """
    b = low_soc_stats(baseline).worst_low_soc_fraction
    i = low_soc_stats(improved).worst_low_soc_fraction
    return reduction_percent(i, b)
