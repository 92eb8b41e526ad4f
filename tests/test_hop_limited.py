"""Tests for the h-hop oracles (scalar DP and vectorized matrix)."""

import random

import numpy as np
import pytest

from repro.graphs import (
    WeightedDigraph,
    dijkstra,
    h_hop_distance_bound,
    hop_limited_apsp_matrix,
    hop_limited_k_source,
    hop_limited_sssp,
    hop_limited_sssp_exact_hops,
    random_graph,
)

INF = float("inf")


class TestScalarDP:
    def test_hop_zero_only_source(self):
        g = random_graph(5, p=0.5, w_max=3, seed=1)
        dist, hops = hop_limited_sssp(g, 2, 0)
        assert dist[2] == 0 and hops[2] == 0
        assert all(dist[v] == INF for v in range(5) if v != 2)

    def test_negative_hop_rejected(self):
        g = random_graph(3, p=0.5, w_max=3, seed=1)
        with pytest.raises(ValueError):
            hop_limited_sssp(g, 0, -1)

    def test_large_h_equals_dijkstra(self):
        for seed in range(10):
            g = random_graph(10, p=0.3, w_max=6, zero_fraction=0.4, seed=seed)
            want, _ = dijkstra(g, 0)
            got, _ = hop_limited_sssp(g, 0, g.n - 1)
            assert got == want

    def test_monotone_nonincreasing_in_h(self):
        g = random_graph(10, p=0.3, w_max=6, zero_fraction=0.3, seed=4)
        prev = None
        for h in range(g.n):
            cur, _ = hop_limited_sssp(g, 0, h)
            if prev is not None:
                assert all(c <= p for c, p in zip(cur, prev))
            prev = cur

    def test_hops_minimal_for_value(self):
        # dist via exactly-j-hop layers: hops[v] is the first j where the
        # final value is achieved
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        dist, hops = hop_limited_sssp(g, 0, 2)
        assert dist[2] == 2 and hops[2] == 1

    def test_exact_hop_layers(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        layers = hop_limited_sssp_exact_hops(g, 0, 2)
        assert layers[0] == [0, INF, INF]
        assert layers[1] == [INF, 2, INF]
        assert layers[2] == [INF, INF, 5]


class TestVectorizedMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_dp(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(3, 12), p=0.35, w_max=5,
                         zero_fraction=0.4, seed=seed)
        h = rng.randint(0, g.n)
        mat = hop_limited_apsp_matrix(g, h)
        for s in range(g.n):
            want, _ = hop_limited_sssp(g, s, h)
            assert list(mat[s]) == want, (seed, s)

    def test_edgeless_graph(self):
        g = WeightedDigraph(4)
        mat = hop_limited_apsp_matrix(g, 3)
        assert np.isinf(mat).sum() == 12
        assert (np.diag(mat) == 0).all()

    def test_early_convergence(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])
        # h much larger than needed -- must still terminate and be exact
        mat = hop_limited_apsp_matrix(g, 50)
        assert mat[0][1] == 1 and mat[1][0] == 1


class TestHelpers:
    def test_k_source(self):
        g = random_graph(8, p=0.4, w_max=4, seed=3)
        res = hop_limited_k_source(g, [0, 5], 3)
        assert set(res) == {0, 5}
        assert res[0][0] == hop_limited_sssp(g, 0, 3)[0]

    def test_distance_bound(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 5), (1, 2, 6)])
        assert h_hop_distance_bound(g, [0], 1) == 5
        assert h_hop_distance_bound(g, [0], 2) == 11
        assert h_hop_distance_bound(g, [2], 2) == 0
