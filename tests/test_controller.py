"""Unit tests for the BAAT controller (ranking and assessment windows)."""

import pytest

from repro.core.controller import BAATController
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.metrics.weighted import EQUAL_WEIGHTS, MetricWeights
from repro.sim.fleet import FleetState
from repro.units import hours


@pytest.fixture
def cluster():
    return Cluster([Node.build(f"node{i}") for i in range(3)])


@pytest.fixture
def controller(cluster):
    return BAATController(cluster)


def stress(node, hours_deep=4.0):
    """Discharge a node's battery deep and log it in the tracker."""
    for _ in range(int(hours_deep * 4)):
        node.battery.discharge(120.0, 900.0)
        node.observe_battery(900.0)


class TestSensing:
    def test_window_metrics_start_neutral(self, controller, cluster):
        for node in cluster:
            m = controller.window_metrics(node)
            assert m.nat == 0.0

    def test_reset_window_clears_history(self, controller, cluster):
        node = cluster.nodes[0]
        stress(node)
        assert controller.window_metrics(node).nat > 0.0
        controller.reset_window(node)
        assert controller.window_metrics(node).nat == 0.0


class TestRanking:
    def test_stressed_node_ranks_last(self, controller, cluster):
        stress(cluster.node("node1"))
        ranked = controller.rank_nodes(EQUAL_WEIGHTS)
        assert ranked[-1][0].name == "node1"
        assert ranked[-1][1] > ranked[0][1]

    def test_ties_break_by_name(self, controller):
        ranked = controller.rank_nodes()
        names = [n.name for n, _ in ranked]
        assert names == sorted(names)

    def test_down_nodes_excluded_by_default(self, controller, cluster):
        cluster.node("node0").server.brownout()
        ranked = controller.rank_nodes()
        assert all(n.name != "node0" for n, _ in ranked)

    def test_down_nodes_included_on_request(self, controller, cluster):
        cluster.node("node0").server.brownout()
        ranked = controller.rank_nodes(up_only=False)
        assert any(n.name == "node0" for n, _ in ranked)


class TestFleetRankCache:
    """With a fleet attached, a ranking is computed once per fleet state
    version and window epoch, and handed out as fresh copies."""

    @pytest.fixture
    def fleet(self, controller, cluster):
        stress(cluster.node("node1"), hours_deep=2.0)
        stress(cluster.node("node2"))
        fleet = FleetState(cluster)
        controller.attach_fleet(fleet)
        return fleet

    @staticmethod
    def _names(ranked):
        return [n.name for n, _ in ranked]

    @pytest.mark.parametrize("up_only", [True, False])
    @pytest.mark.parametrize(
        "weights", [EQUAL_WEIGHTS, MetricWeights(cf=0.2, pc=0.3, nat=0.9)]
    )
    def test_matches_object_path(self, controller, cluster, weights, up_only):
        stress(cluster.node("node1"), hours_deep=2.0)
        stress(cluster.node("node2"))
        cluster.node("node0").server.brownout()
        expected = controller.rank_nodes(weights, up_only=up_only)
        controller.attach_fleet(FleetState(cluster))
        assert controller.rank_nodes(weights, up_only=up_only) == expected
        assert self._names(expected)[-1] == "node2"

    def test_brownout_after_capture_drops_node(self, controller, cluster, fleet):
        assert "node0" in self._names(controller.rank_nodes())
        fleet.materialize()
        cluster.node("node0").server.brownout()
        fleet.capture()
        assert "node0" not in self._names(controller.rank_nodes())
        assert "node0" in self._names(controller.rank_nodes(up_only=False))

    def test_fleet_transition_drops_node(self, controller, fleet):
        assert "node1" in self._names(controller.rank_nodes())
        fleet.brownout(1)
        assert "node1" not in self._names(controller.rank_nodes())
        fleet.power_on(1)
        assert "node1" not in self._names(controller.rank_nodes())
        fleet.finish_boot(1)
        assert "node1" in self._names(controller.rank_nodes())

    def test_reset_window_recomputes_scores(self, controller, fleet):
        before = [score for _, score in controller.rank_nodes()]
        assert max(before) > 0.0
        controller.reset_window()
        after = controller.rank_nodes()
        assert [score for _, score in after] == [0.0] * len(after)

    def test_returned_list_is_a_copy(self, controller, fleet):
        first = controller.rank_nodes()
        expected = list(first)
        first.reverse()
        first.pop()
        assert controller.rank_nodes() == expected

    def test_scores_once_per_key(self, controller, fleet, monkeypatch):
        calls = []
        score_array = controller.score_array

        def counted(*args, **kwargs):
            calls.append(args)
            return score_array(*args, **kwargs)

        monkeypatch.setattr(controller, "score_array", counted)
        controller.rank_nodes()
        controller.rank_nodes()
        assert len(calls) == 1
        controller.rank_nodes(up_only=False)
        assert len(calls) == 2
        fleet.capture()
        controller.rank_nodes()
        assert len(calls) == 3
