"""Tests for the weight transforms behind the paper's reductions."""

import pytest

from repro.graphs import GraphError, WeightedDigraph, dijkstra, random_graph
from repro.graphs.transforms import (
    expansion_blowup,
    reduced_graph,
    rounded_graph,
    scaled_graph,
    unit_weights,
    weight_expanded_graph,
    zero_subgraph,
)

INF = float("inf")


class TestScaledGraph:
    def test_weights(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 0), (1, 2, 4)])
        gp = scaled_graph(g)
        assert gp.weight(0, 1) == 1
        assert gp.weight(1, 2) == 4 * 9

    def test_distance_sandwich(self):
        """Section IV: n^2 delta <= delta' <= n^2 delta + (n-1) for pairs
        without an all-zero path."""
        for seed in range(6):
            g = random_graph(8, p=0.35, w_max=5, zero_fraction=0.4, seed=seed)
            gp = scaled_graph(g)
            n2 = g.n * g.n
            for s in range(g.n):
                d, _ = dijkstra(g, s)
                dp, _ = dijkstra(gp, s)
                for v in range(g.n):
                    if d[v] == INF:
                        assert dp[v] == INF
                    else:
                        assert n2 * d[v] <= dp[v] <= n2 * d[v] + g.n - 1


class TestRoundedGraph:
    def test_ceil_semantics(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 7)])
        assert rounded_graph(g, 2, 1).weight(0, 1) == 4   # ceil(7/2)
        assert rounded_graph(g, 3, 2).weight(0, 1) == 5   # ceil(7*2/3)
        assert rounded_graph(g, 1, 1).weight(0, 1) == 7

    def test_rounding_never_decreases_distances(self):
        g = random_graph(8, p=0.35, w_max=9, zero_fraction=0.0, seed=1)
        gr = rounded_graph(g, 3, 1)
        for s in range(g.n):
            d, _ = dijkstra(g, s)
            dr, _ = dijkstra(gr, s)
            for v in range(g.n):
                if d[v] != INF:
                    assert dr[v] * 3 >= d[v]

    def test_invalid_rho(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            rounded_graph(g, 0, 1)


class TestReducedGraph:
    def test_non_negative_with_coarser_scale_potentials(self):
        """Gabow validity: potentials from the next-coarser scale
        (weights ``w >> (shift+1)``) make every reduced weight
        non-negative."""
        for seed in range(6):
            g = random_graph(8, p=0.4, w_max=15, zero_fraction=0.2, seed=seed)
            shift = 1
            g_coarse = WeightedDigraph(g.n)
            for u, v, w in g.edges():
                g_coarse.add_edge(u, v, w >> (shift + 1))
            for x in range(g.n):
                pot, _ = dijkstra(g_coarse, x)
                red = reduced_graph(g, shift, pot)
                if red is not None:
                    for _u, _v, w in red.edges():
                        assert w >= 0

    def test_reduced_distances_telescope(self):
        """delta_red(x, v) = delta_{i+1}(x, v) - 2 delta_i(x, v)."""
        g = random_graph(8, p=0.4, w_max=15, zero_fraction=0.2, seed=9)
        shift = 1
        g_fine = WeightedDigraph(g.n)
        g_coarse = WeightedDigraph(g.n)
        for u, v, w in g.edges():
            g_fine.add_edge(u, v, w >> shift)
            g_coarse.add_edge(u, v, w >> (shift + 1))
        for x in range(g.n):
            pot, _ = dijkstra(g_coarse, x)
            d_fine, _ = dijkstra(g_fine, x)
            red = reduced_graph(g, shift, pot)
            if red is None:
                continue
            d_red, _ = dijkstra(red, x)
            for v in range(g.n):
                if d_fine[v] != INF and pot[v] != INF:
                    assert d_red[v] == d_fine[v] - 2 * pot[v]

    def test_invalid_potentials_detected(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="negative"):
            reduced_graph(g, 0, [0, 5])  # p(v) too large

    def test_unreachable_endpoints_dropped(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        red = reduced_graph(g, 0, [0, 1, INF])
        assert red.weight(0, 1) == 2 + 0 - 2
        assert red.weight(1, 2) is None

    def test_all_unreachable_returns_none(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1)])
        assert reduced_graph(g, 0, [INF, INF]) is None


class TestUnitAndZero:
    def test_unit_weights(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 9)])
        assert unit_weights(g).weight(0, 1) == 1

    def test_zero_subgraph(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 0), (1, 2, 4)])
        z = zero_subgraph(g)
        assert z.weight(0, 1) == 0
        assert z.weight(1, 2) is None
        assert z.n == 3


class TestWeightExpansion:
    def test_expansion_preserves_distances(self):
        g = random_graph(6, p=0.4, w_max=4, zero_fraction=0.0, seed=3)
        ge, mapping = weight_expanded_graph(g)
        for s in range(g.n):
            d, _ = dijkstra(g, s)
            de, _ = dijkstra(ge, mapping[s])
            for v in range(g.n):
                assert de[mapping[v]] == d[v]

    def test_zero_weight_failure_mode(self):
        """The paper's Section I observation, as an exception."""
        g = WeightedDigraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(GraphError, match="zero"):
            weight_expanded_graph(g)

    def test_blowup_is_theta_mW(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 100), (1, 0, 100)])
        assert expansion_blowup(g) == 2 + 99 + 99
        ge, _ = weight_expanded_graph(g)
        assert ge.n == expansion_blowup(g)
