"""Low-SoC exposure and SoC-distribution statistics (Figs. 18-19).

"The key aging factor that directly correlates with server availability
is deep discharge time (DDT) ... datacenter[s] must leave 2 minutes of
reserve capacity in UPS battery for high availability. A low SoC means
less reserved energy." The availability comparison therefore reduces to
the statistics of low-SoC residence: how long, per scheme, the worst
battery sits below the 40 % line (single-point-of-failure exposure), and
how each scheme's overall SoC mass is distributed across the paper's
seven 15-%-wide bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.reporting import format_table, reduction_percent
from repro.errors import ConfigurationError
from repro.sim.recorder import SOC_BIN_LABELS
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


def soc_distribution_table(results: Sequence[SimResult], node: str = "") -> str:
    """Render the Fig.-19 distribution (time share per SoC bin, per
    scheme) as a text table.

    With ``node`` empty, bins are averaged across all nodes.
    """
    headers = ["scheme"] + list(SOC_BIN_LABELS)
    rows: List[List[object]] = []
    for result in results:
        if node:
            dists = [n.soc_distribution for n in result.nodes if n.name == node]
            if not dists:
                raise ConfigurationError(f"no node named {node!r} in result")
        else:
            dists = [n.soc_distribution for n in result.nodes]
        merged: Dict[str, float] = {
            label: sum(d[label] for d in dists) / len(dists) for label in SOC_BIN_LABELS
        }
        rows.append([result.policy_name] + [merged[label] for label in SOC_BIN_LABELS])
    return format_table(headers, rows, title="SoC distribution (fraction of time)")
