"""Simulation results: everything a paper figure needs from one run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.snapshot import AgingMetrics
from repro.sim.recorder import TraceRecorder
from repro.units import SECONDS_PER_DAY


@dataclass(frozen=True)
class NodeResult:
    """Per-node outcome of one run.

    Attributes
    ----------
    fade_added:
        Capacity fade accumulated during the run (not counting pre-aging).
    damage_per_day:
        Mean fade accrual rate, the input to lifetime extrapolation.
    metrics:
        The five aging metrics over the whole run window.
    """

    name: str
    fade_start: float
    fade_end: float
    discharged_ah: float
    charged_ah: float
    metrics: AgingMetrics
    downtime_s: float
    low_soc_time_s: float
    soc_distribution: Dict[str, float]
    final_soc: float

    @property
    def fade_added(self) -> float:
        return self.fade_end - self.fade_start

    def damage_per_day(self, duration_s: float) -> float:
        """Mean capacity-fade accrual per day over the run."""
        days = duration_s / SECONDS_PER_DAY
        return self.fade_added / days if days > 0 else 0.0


@dataclass(frozen=True)
class SimResult:
    """Whole-run outcome for one (policy, scenario, trace) triple."""

    policy_name: str
    duration_s: float
    throughput: float
    nodes: List[NodeResult]
    total_downtime_s: float
    migrations: int
    dvfs_transitions: int
    unserved_wh: float
    feedback_wh: float
    recorder: Optional[TraceRecorder] = field(default=None, compare=False)
    #: Simulation time (s) of the policy's first Fig.-9 slowdown action,
    #: or None: no slowdown monitor, or it never acted (Fig. 12's onset).
    slowdown_onset_s: Optional[float] = None
    #: Per-node DoD goal at run end (planned aging; empty otherwise).
    dod_goals: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Worst-node views (the paper reports the worst battery node)
    # ------------------------------------------------------------------
    def worst_node(self) -> NodeResult:
        """Node with the most fade added during the run."""
        return max(self.nodes, key=lambda n: n.fade_added)

    def worst_node_by_throughput_ah(self) -> NodeResult:
        """Node with the largest Ah throughput (the paper's Fig. 13
        selection: "the worst battery node that has the most
        Ah-throughput")."""
        return max(self.nodes, key=lambda n: n.discharged_ah)

    def worst_damage_per_day(self) -> float:
        """Worst node's fade rate (per day)."""
        return self.worst_node().damage_per_day(self.duration_s)

    def mean_damage_per_day(self) -> float:
        """Mean node fade rate (per day)."""
        return sum(n.damage_per_day(self.duration_s) for n in self.nodes) / len(
            self.nodes
        )

    def worst_low_soc_fraction(self) -> float:
        """Worst node's share of time below 40 % SoC (Fig. 18)."""
        if self.duration_s <= 0:
            return 0.0
        return max(n.low_soc_time_s for n in self.nodes) / self.duration_s

    @property
    def days(self) -> float:
        return self.duration_s / SECONDS_PER_DAY

    def throughput_per_day(self) -> float:
        """Progress units per day (the Fig. 20 comparison quantity)."""
        return self.throughput / self.days if self.days > 0 else 0.0
