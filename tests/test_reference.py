"""Tests for the sequential oracles, cross-checked against networkx."""

import random

import networkx as nx
import pytest

from repro.graphs import (
    WeightedDigraph,
    apsp,
    dijkstra,
    dijkstra_min_hops,
    eccentricity_bound,
    k_source_distances,
    max_min_hops,
    path_from_parents,
    random_graph,
    shortest_path_diameter,
    zero_reachability,
)
from repro.graphs.io import to_networkx
from repro.graphs.reference import weak_delta_bound, weak_h_hop_sssp

INF = float("inf")


class TestDijkstraVsNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_distances_match_networkx(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(3, 15), p=0.3,
                         w_max=rng.choice([0, 1, 9]),
                         zero_fraction=0.4, seed=seed)
        nxg = to_networkx(g)
        for s in range(g.n):
            got, _ = dijkstra(g, s)
            want = nx.single_source_dijkstra_path_length(nxg, s)
            for v in range(g.n):
                assert got[v] == want.get(v, INF), (s, v)

    def test_parent_pointers_form_shortest_paths(self):
        g = random_graph(12, p=0.3, w_max=6, zero_fraction=0.3, seed=3)
        dist, parent = dijkstra(g, 0)
        for v in range(g.n):
            if dist[v] == INF or v == 0:
                continue
            path = path_from_parents(parent, 0, v)
            w = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert w == dist[v]


class TestMinHops:
    def test_min_hops_among_shortest_paths(self):
        # 0 -> 2 has weight 2 directly (1 hop) and via 1 (2 hops, weight 2)
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        dist, hops, parent = dijkstra_min_hops(g, 0)
        assert dist[2] == 2 and hops[2] == 1 and parent[2] == 0

    def test_zero_edges_increase_hops_not_distance(self):
        g = WeightedDigraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (2, 3, 5)])
        dist, hops, _ = dijkstra_min_hops(g, 0)
        assert dist[2] == 0 and hops[2] == 1
        assert dist[3] == 5 and hops[3] == 2

    def test_hops_consistent_with_dist(self):
        for seed in range(8):
            g = random_graph(10, p=0.35, w_max=5, zero_fraction=0.5, seed=seed)
            dist, _ = dijkstra(g, 0)
            dist2, hops, _ = dijkstra_min_hops(g, 0)
            assert dist == dist2
            for v in range(g.n):
                if dist[v] != INF:
                    assert hops[v] <= g.n - 1


class TestWeakOracle:
    def test_weak_semantics_filtering(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
        d, l = weak_h_hop_sssp(g, 0, 1)
        assert d == [0, 0, INF]  # node 2 needs 2 hops
        d2, _ = weak_h_hop_sssp(g, 0, 2)
        assert d2 == [0, 0, 0]

    def test_weak_delta_bound(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 5), (1, 2, 7)])
        assert weak_delta_bound(g, [0], 1) == 5
        assert weak_delta_bound(g, [0], 2) == 12


class TestGlobalQuantities:
    def test_shortest_path_diameter(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 3), (1, 2, 4), (2, 0, 0)])
        assert shortest_path_diameter(g) == 7

    def test_max_min_hops(self):
        g = WeightedDigraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        assert max_min_hops(g) == 3

    def test_eccentricity_bound_path(self):
        from repro.graphs import path_graph
        assert eccentricity_bound(path_graph(6)) == 5

    def test_apsp_matches_per_source(self):
        g = random_graph(8, p=0.4, w_max=5, seed=2)
        mat = apsp(g)
        for s in range(8):
            assert mat[s] == dijkstra(g, s)[0]

    def test_k_source(self):
        g = random_graph(8, p=0.4, w_max=5, seed=2)
        d = k_source_distances(g, [1, 3])
        assert set(d) == {1, 3}
        assert d[1] == dijkstra(g, 1)[0]


class TestZeroReachability:
    def test_zero_closure(self):
        g = WeightedDigraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 1)])
        zr = zero_reachability(g)
        assert zr[0] == {0, 1, 2}
        assert zr[2] == {2}
        assert zr[3] == {3}

    def test_matches_networkx_on_zero_subgraph(self):
        for seed in range(6):
            g = random_graph(10, p=0.35, w_max=4, zero_fraction=0.5, seed=seed)
            zr = zero_reachability(g)
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(10))
            nxg.add_edges_from((u, v) for u, v, w in g.edges() if w == 0)
            for s in range(10):
                assert zr[s] == set(nx.descendants(nxg, s)) | {s}


class TestPathFromParents:
    def test_cycle_detection(self):
        parent = [None, 2, 1]
        with pytest.raises(ValueError, match="cycle"):
            path_from_parents(parent, 0, 2)

    def test_unreachable_returns_none(self):
        assert path_from_parents([None, None], 0, 1) is None

    def test_source_itself(self):
        assert path_from_parents([None], 0, 0) == [0]
