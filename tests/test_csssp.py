"""Tests for CSSSP construction (Section III-A, Lemma III.4)."""

import random

import pytest

from repro.core import build_csssp, run_hk_ssp
from repro.graphs import (
    FIGURE1_HOP_BOUND,
    dijkstra_min_hops,
    figure1_graph,
    random_graph,
    zero_cluster_graph,
)

INF = float("inf")


class TestFigure1Repair:
    def test_plain_pointers_violate_height(self):
        """With h = 3 the plain parent pointers at t lead through the
        3-hop path; truncating naively at h = 2 would strand t -- the
        CSSSP construction instead runs with 2h and keeps t out of T_s,
        exactly as the Figure 1 caption prescribes."""
        g = figure1_graph()
        h = FIGURE1_HOP_BOUND
        coll = build_csssp(g, [0], h)
        coll.check_consistency()
        # t=3 has only 3-hop shortest paths: not in the 2-hop tree
        assert not coll.contains(0, 3)
        # a=1 is in the tree at depth 2 via b
        assert coll.contains(0, 1)
        assert coll.depth[0][1] == 2
        assert coll.parent[0][1] == 2


class TestDefinitionIII3:
    @pytest.mark.parametrize("seed", range(15))
    def test_consistency_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.35, seed=seed)
        h = rng.randint(1, max(1, n // 2))
        srcs = rng.sample(range(n), rng.randint(1, n))
        coll = build_csssp(g, srcs, h)
        coll.check_consistency()

    def test_coverage_exact(self):
        g = zero_cluster_graph(3, 3, seed=1)
        h = 3
        coll = build_csssp(g, list(range(g.n)), h)
        for x in coll.sources:
            d_true, l_true, _ = dijkstra_min_hops(g, x)
            for v in range(g.n):
                if l_true[v] <= h:
                    assert coll.contains(x, v)
                    assert coll.dist[x][v] == d_true[v]
                    assert coll.depth[x][v] == l_true[v]

    def test_tree_paths_have_consistent_weights(self):
        g = random_graph(10, p=0.35, w_max=5, zero_fraction=0.4, seed=7)
        coll = build_csssp(g, [0, 3, 6], 3)
        for x in coll.sources:
            for v in coll.tree_nodes(x):
                path = coll.tree_path(x, v)
                w = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
                assert w == coll.dist[x][v]
                assert len(path) - 1 == coll.depth[x][v]


class TestTreeStructures:
    @pytest.mark.parametrize("seed", range(10))
    def test_lemma_iii7_in_tree(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 12)
        g = random_graph(n, p=0.35, w_max=5, zero_fraction=0.3, seed=seed)
        coll = build_csssp(g, rng.sample(range(n), max(1, n // 2)),
                           rng.randint(1, n // 2 + 1))
        for c in range(n):
            nxt = coll.in_tree_to(c)  # raises on violation
            # following pointers from any node reaches c
            for start in nxt:
                cur, steps = start, 0
                while cur != c:
                    cur = nxt[cur]
                    steps += 1
                    assert steps <= n

    @pytest.mark.parametrize("seed", range(10))
    def test_lemma_iii6_out_tree(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 12)
        g = random_graph(n, p=0.35, w_max=5, zero_fraction=0.3, seed=seed)
        coll = build_csssp(g, rng.sample(range(n), max(1, n // 2)),
                           rng.randint(1, n // 2 + 1))
        for c in range(n):
            pred = coll.out_tree_from(c)  # raises on violation
            for start in pred:
                cur, steps = start, 0
                while cur != c:
                    cur = pred[cur]
                    steps += 1
                    assert steps <= n

    def test_children_inverse_of_parent(self):
        g = random_graph(9, p=0.35, w_max=4, zero_fraction=0.3, seed=3)
        coll = build_csssp(g, [0, 4], 3)
        for x in coll.sources:
            for v in coll.tree_nodes(x):
                for ch in coll.children(x, v):
                    assert coll.parent[x][ch] == v

    def test_leaves_at_depth_h(self):
        g = random_graph(9, p=0.35, w_max=4, zero_fraction=0.3, seed=3)
        h = 2
        coll = build_csssp(g, [0], h)
        for leaf in coll.leaves_at_depth_h(0):
            assert coll.depth[0][leaf] == h


class TestConstructionCost:
    def test_metrics_are_the_2h_run(self):
        g = random_graph(8, p=0.35, w_max=4, zero_fraction=0.3, seed=2)
        coll = build_csssp(g, [0, 2], 2)
        direct = run_hk_ssp(g, [0, 2], 4)
        assert coll.metrics.rounds == direct.metrics.rounds

    def test_bad_h_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError):
            build_csssp(g, [0], 0)
