"""Tests for the high-level public API."""

import pytest

from repro.core import apsp, approximate_apsp, h_hop_ssp, k_ssp
from repro.core.api import _estimate_bounds
from repro.graphs import WeightedDigraph, dijkstra, random_graph


class TestAPSP:
    @pytest.mark.parametrize("method", ["pipelined", "blocker", "bellman-ford"])
    def test_all_methods_exact(self, method):
        g = random_graph(9, p=0.35, w_max=5, zero_fraction=0.3, seed=1)
        res = apsp(g, method=method)
        for x in range(g.n):
            assert res.dist[x] == dijkstra(g, x)[0]
        assert res.metrics.rounds > 0

    def test_auto_picks_something_valid(self):
        g = random_graph(8, p=0.35, w_max=4, zero_fraction=0.3, seed=2)
        res = apsp(g, method="auto")
        for x in range(g.n):
            assert res.dist[x] == dijkstra(g, x)[0]

    def test_unknown_method_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError, match="unknown"):
            apsp(g, method="warp-drive")


class TestKSSP:
    @pytest.mark.parametrize("method", ["pipelined", "blocker", "bellman-ford"])
    def test_all_methods_exact(self, method):
        g = random_graph(9, p=0.35, w_max=5, zero_fraction=0.3, seed=3)
        srcs = [0, 4, 7]
        res = k_ssp(g, srcs, method=method)
        for x in srcs:
            assert res.dist[x] == dijkstra(g, x)[0]

    def test_unknown_method_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError, match="unknown"):
            k_ssp(g, [0], method="nope")


class TestHHop:
    def test_h_hop_passthrough(self):
        g = random_graph(8, p=0.35, w_max=4, zero_fraction=0.3, seed=4)
        res = h_hop_ssp(g, [0, 2], 3)
        assert res.h == 3 and res.sources == (0, 2)


class TestApprox:
    def test_approximate_apsp_passthrough(self):
        g = random_graph(7, p=0.4, w_max=4, zero_fraction=0.3, seed=5)
        res = approximate_apsp(g, 1.0)
        assert res.eps == 1.0


class TestAutoEstimates:
    def test_estimates_have_all_methods(self):
        g = random_graph(8, p=0.35, w_max=4, seed=1)
        est = _estimate_bounds(g, g.n)
        assert set(est) == {"pipelined", "blocker", "bellman-ford"}
        assert all(v > 0 for v in est.values())


class TestDisconnectedNetwork:
    """Algorithm 3 coordinates over one BFS tree rooted at node 0, so it
    refuses a disconnected communication network and ``auto`` picks
    another method there.  On this graph (node 0 isolated) it used to
    report 2 -> 3 and 3 -> 2 unreachable instead of 2."""

    def _graph(self):
        return WeightedDigraph.from_edges(
            6, [(1, 2, 0), (1, 4, 2), (1, 5, 1), (2, 5, 5), (3, 4, 2),
                (3, 5, 1)], directed=False)

    def test_blocker_refuses(self):
        g = self._graph()
        with pytest.raises(ValueError, match="connected"):
            apsp(g, method="blocker")
        with pytest.raises(ValueError, match="connected"):
            k_ssp(g, [2, 3], method="blocker")

    def test_auto_stays_exact(self):
        g = self._graph()
        assert "blocker" not in _estimate_bounds(g, g.n)
        for res in (apsp(g, method="auto"), k_ssp(g, [2, 3], method="auto")):
            for x in res.dist:
                assert res.dist[x] == dijkstra(g, x)[0]
