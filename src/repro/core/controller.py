"""BAAT controller: metric evaluation and node ranking.

The control server "collect[s] the sensor data and calculate[s] different
metrics to access the aging process" and "can rank the weighted aging
value of all the battery nodes in datacenters for the load placement".
:class:`BAATController` provides exactly that service over a
:class:`~repro.datacenter.cluster.Cluster`: windowed metric queries per
node, Eq.-6 weighted scores, and ascending-aging rankings used by both the
hiding scheduler and the slowdown monitor's migration-target selection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.metrics.accumulator import PC_WEIGHTS, SOC_REGIONS
from repro.metrics.snapshot import AgingMetrics
from repro.metrics.weighted import (
    EQUAL_WEIGHTS,
    NAT_SCORE_SCALE,
    MetricWeights,
    node_aging_score,
)

#: Mark label for the rolling assessment window the controller maintains.
WINDOW_MARK = "baat/window"


class BAATController:
    """Aging assessment service over a cluster's battery sensors."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: Monotone counter of window restarts; array readers key their
        #: cached per-node mark snapshots on it (see ``attach_fleet``).
        self.window_epoch = 0
        #: Optional struct-of-arrays view of the same cluster. When set
        #: (by the engine on fleet runs), metric scoring and ranking read
        #: the tracker-accumulator arrays directly instead of building a
        #: per-node ``AgingMetrics`` object chain.
        self._fleet = None
        #: Fleet rankings per ``(weights, up_only)``, valid while
        #: ``_rank_stamp`` (fleet state version, window epoch) holds.
        self._rank_cache: Dict[Tuple[MetricWeights, bool], List[Tuple[Node, float]]] = {}
        self._rank_stamp: Optional[Tuple[int, int]] = None
        for node in cluster:
            node.tracker.mark(WINDOW_MARK)

    def attach_fleet(self, fleet) -> None:
        """Accelerate metric queries with a :class:`~repro.sim.fleet.
        FleetState` whose arrays are authoritative for this cluster.

        Only valid while the fleet arrays track every tracker mutation —
        i.e. on fleet-stepper runs, where all observation goes through
        the vectorized power path. The ranking produced from the arrays
        is bit-identical to the object path (same score floats, same
        ``(score, name)`` sort key).
        """
        self._fleet = fleet

    # ------------------------------------------------------------------
    # Assessment window
    # ------------------------------------------------------------------
    def reset_window(self, node: Optional[Node] = None) -> None:
        """Restart the rolling assessment window (all nodes, or one)."""
        targets = [node] if node is not None else list(self.cluster)
        for n in targets:
            n.tracker.mark(WINDOW_MARK)
        self.window_epoch += 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def window_metrics(self, node: Node) -> AgingMetrics:
        """The five metrics over the current assessment window."""
        return node.tracker.since(WINDOW_MARK)

    # ------------------------------------------------------------------
    # Array metrics (fleet fast path)
    # ------------------------------------------------------------------
    def window_deltas(self, fleet) -> Dict[str, np.ndarray]:
        """Per-node window accumulators (live arrays minus window marks).

        Each entry is the array twin of ``tracker.acc - mark`` for the
        field: the same elementwise subtraction the object path performs
        in :meth:`MetricsAccumulator.__sub__`.
        """
        marks = fleet.mark_arrays(WINDOW_MARK, self.window_epoch)
        return {
            "discharged_ah": fleet.tr_discharged_ah - marks["discharged_ah"],
            "charged_ah": fleet.tr_charged_ah - marks["charged_ah"],
            "region": fleet.tr_region - marks["region"],
            "total_time_s": fleet.tr_total_time_s - marks["total_time_s"],
            "deep_time_s": fleet.tr_deep_time_s - marks["deep_time_s"],
        }

    def window_nat_array(self, fleet) -> np.ndarray:
        """Vector Eq. 1 over the current window (fleet arrays)."""
        d = fleet.tr_discharged_ah - fleet.mark_arrays(
            WINDOW_MARK, self.window_epoch
        )["discharged_ah"]
        return d / fleet.tracker_lifetime_ah

    def window_ddt_array(self, fleet) -> np.ndarray:
        """Vector Eq. 5 over the current window (fleet arrays)."""
        marks = fleet.mark_arrays(WINDOW_MARK, self.window_epoch)
        total = fleet.tr_total_time_s - marks["total_time_s"]
        deep = fleet.tr_deep_time_s - marks["deep_time_s"]
        pos = total > 0.0
        return np.where(
            pos, np.divide(deep, total, out=np.zeros_like(deep), where=pos), 0.0
        )

    def score_array(
        self, fleet, weights: MetricWeights = EQUAL_WEIGHTS
    ) -> np.ndarray:
        """Vector :func:`node_aging_score` over the window arrays.

        Every operation is an elementwise add/sub/mul/div/min — exact
        under IEEE-754 — in the same association order as the scalar
        score, so each element is bit-identical to ``score(node)``.
        """
        d = self.window_deltas(fleet)
        discharged = d["discharged_ah"]
        charged = d["charged_ah"]
        has_d = discharged > 1e-12

        nat = discharged / fleet.tracker_lifetime_ah
        nat_term = np.minimum(1.0, nat * NAT_SCORE_SCALE)

        # CF (Eq. 2) and its badness deficit, with the object path's three
        # branches: discharge seen -> charged/discharged; charge only ->
        # inf (deficit 0); resting -> 1.0 (deficit 0).
        cf = np.where(
            has_d,
            np.divide(charged, discharged, out=np.ones_like(charged), where=has_d),
            np.where(charged > 1e-12, np.inf, 1.0),
        )
        cf_term = np.where(
            np.isinf(cf) | (cf >= 1.0), 0.0, 1.0 - np.maximum(0.0, cf)
        )

        # PC (Eqs. 3-4): region shares weighted 1..4, averaged. The sum's
        # fold order matches the scalar generator expression (A..D).
        safe_d = np.where(has_d, discharged, 1.0)
        acc = np.zeros_like(discharged)
        for row, label in enumerate(SOC_REGIONS):
            acc = acc + (d["region"][row] / safe_d) * PC_WEIGHTS[label]
        pc = np.where(has_d, acc / 4.0, 0.0)

        return weights.cf * cf_term + weights.pc * pc + weights.nat * nat_term

    # ------------------------------------------------------------------
    # Ranking (Eq. 6)
    # ------------------------------------------------------------------
    def score(self, node: Node, weights: MetricWeights = EQUAL_WEIGHTS) -> float:
        """Weighted aging score for one node's window (higher = worse)."""
        return node_aging_score(self.window_metrics(node), weights)

    def rank_nodes(
        self,
        weights: MetricWeights = EQUAL_WEIGHTS,
        up_only: bool = True,
    ) -> List[Tuple[Node, float]]:
        """Nodes sorted by weighted aging score, slowest-aging first.

        The head of this list is where new load should land (hiding), and
        the preferred migration target (slowdown). With a fleet attached
        the scores come from one array pass instead of a per-node object
        chain; the result is bit-identical either way.

        A fleet ranking reads only the tracker window arrays, the window
        marks and the servers' up state, none of which a control pass or
        VM placement changes. It is therefore computed once per key
        ``(fleet._state_version, window_epoch, weights, up_only)`` — the
        version moves with every power step, capture and server
        transition — and each call returns a fresh copy of the list.
        """
        fleet = self._fleet
        if fleet is not None:
            stamp = (fleet._state_version, self.window_epoch)
            if stamp != self._rank_stamp:
                self._rank_stamp = stamp
                self._rank_cache.clear()
            ranked = self._rank_cache.get((weights, up_only))
            if ranked is None:
                scores = self.score_array(fleet, weights).tolist()
                ranked = list(zip(fleet.nodes, scores))
                if up_only:
                    up = fleet.server_up.tolist()
                    ranked = [pair for pair, ok in zip(ranked, up) if ok]
                ranked.sort(key=lambda pair: (pair[1], pair[0].name))
                self._rank_cache[(weights, up_only)] = ranked
            return list(ranked)
        nodes = self.cluster.up_nodes() if up_only else list(self.cluster.nodes)
        scored = [(n, self.score(n, weights)) for n in nodes]
        scored.sort(key=lambda pair: (pair[1], pair[0].name))
        return scored
