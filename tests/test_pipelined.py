"""Tests for Algorithm 1 -- the pipelined (h, k)-SSP algorithm."""

import random

import pytest

from repro.congest import TraceRecorder
from repro.core import (
    max_entries_per_source,
    run_apsp,
    run_hk_ssp,
    run_k_ssp,
    theorem11_round_bound,
)
from repro.graphs import (
    FIGURE1_HOP_BOUND,
    WeightedDigraph,
    dijkstra,
    dijkstra_min_hops,
    figure1_graph,
    grid_graph,
    layered_graph,
    random_graph,
    zero_cluster_graph,
)
from repro.graphs.reference import weak_h_hop_sssp
from repro.graphs.validation import assert_weak_h_hop_contract

INF = float("inf")


class TestFigure1:
    """The paper's own adversarial instance."""

    def test_weak_semantics_output(self):
        g = figure1_graph()
        res = run_hk_ssp(g, [0], FIGURE1_HOP_BOUND)
        want_d, want_l = weak_h_hop_sssp(g, 0, FIGURE1_HOP_BOUND)
        assert res.dist[0] == want_d
        assert res.hops[0] == want_l

    def test_pareto_survival(self):
        """Node a=1 must keep forwarding the (d=2, l=1) direct-edge entry
        even after the cheaper 2-hop path demotes it -- node t=3 can
        receive source 0 only through it (with h = 3 every hop fits)."""
        g = figure1_graph()
        res = run_hk_ssp(g, [0], 3)
        assert res.dist[0][3] == 1  # via s->b->a->t, 3 hops
        res2 = run_hk_ssp(g, [0], 2)
        assert res2.dist[0][3] == INF  # 3-hop shortest not learnable at h=2


class TestExactAPSP:
    @pytest.mark.parametrize("seed", range(10))
    def test_apsp_matches_dijkstra(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 14)
        g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.3, seed=seed)
        res = run_apsp(g)
        for x in range(n):
            assert res.dist[x] == dijkstra(g, x)[0], x

    def test_apsp_parent_pointers(self):
        g = random_graph(10, p=0.35, w_max=6, zero_fraction=0.3, seed=5)
        res = run_apsp(g)
        for x in range(g.n):
            d_true, l_true, _ = dijkstra_min_hops(g, x)
            for v in range(g.n):
                if v == x or res.dist[x][v] == INF:
                    continue
                p = res.parent[x][v]
                w = g.weight(p, v)
                assert w is not None
                assert res.dist[x][p] + w == res.dist[x][v]
                assert res.hops[x][v] == l_true[v]

    @pytest.mark.parametrize("family", ["zero_cluster", "grid", "layered", "all_zero"])
    def test_apsp_on_families(self, family):
        g = {
            "zero_cluster": lambda: zero_cluster_graph(4, 3, seed=2),
            "grid": lambda: grid_graph(3, 4, w_max=5, zero_fraction=0.4, seed=3),
            "layered": lambda: layered_graph(4, 3, seed=4),
            "all_zero": lambda: random_graph(9, p=0.4, w_max=0, seed=1),
        }[family]()
        res = run_apsp(g)
        for x in range(g.n):
            assert res.dist[x] == dijkstra(g, x)[0]

    def test_one_way_reachability(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        res = run_apsp(g)
        assert res.dist[0] == [0, 2, 5]
        assert res.dist[2] == [INF, INF, 0]


class TestHKContract:
    @pytest.mark.parametrize("seed", range(20))
    def test_weak_contract_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.3, seed=seed)
        h = rng.randint(1, n)
        srcs = rng.sample(range(n), rng.randint(1, n))
        res = run_hk_ssp(g, srcs, h)
        assert_weak_h_hop_contract(g, res.dist, res.hops, h)

    def test_k_ssp_exact(self):
        g = random_graph(12, p=0.3, w_max=5, zero_fraction=0.3, seed=9)
        res = run_k_ssp(g, [0, 4, 7])
        for x in (0, 4, 7):
            assert res.dist[x] == dijkstra(g, x)[0]

    def test_duplicate_sources_deduped(self):
        g = random_graph(6, p=0.4, w_max=4, seed=2)
        res = run_hk_ssp(g, [1, 1, 3, 1], 3)
        assert res.sources == (1, 3)
        assert res.k == 2


class TestRoundBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_theorem11_bound_holds(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 16)
        g = random_graph(n, p=0.25, w_max=5, zero_fraction=0.3, seed=seed)
        h = rng.randint(1, n)
        srcs = rng.sample(range(n), rng.randint(1, n))
        res = run_hk_ssp(g, srcs, h)
        assert res.round_bound == theorem11_round_bound(h, res.k, res.delta)
        assert res.last_sp_update_round <= res.round_bound
        assert res.metrics.rounds <= res.round_bound  # cutoff enforces it

    def test_cutoff_false_runs_to_quiescence(self):
        g = random_graph(8, p=0.35, w_max=4, zero_fraction=0.3, seed=1)
        res = run_hk_ssp(g, [0, 2], 4, cutoff=False)
        assert_weak_h_hop_contract(g, res.dist, res.hops, 4)

    def test_invariant2_budget(self):
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(6, 14)
            g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.35, seed=seed)
            h = max(2, n // 2)
            srcs = list(range(0, n, 2))
            res = run_hk_ssp(g, srcs, h)
            bound = max_entries_per_source(h, len(srcs), res.delta)
            # budget-enforced: floor(bound) + 1 slack for the protected
            # flag-d* entry
            assert res.max_entries_per_source <= int(bound) + 1

    def test_sources_without_out_arcs_count_their_own_entry(self):
        """List sizes are read off the final lists, so a source whose
        entry can go nowhere still counts it: no node receives
        anything, and each source's list holds one entry."""
        g = WeightedDigraph.from_edges(3, [(1, 2, 4)])
        res = run_hk_ssp(g, [0, 2], 2)
        assert res.metrics.messages == 0
        assert (res.max_list_len, res.max_entries_per_source) == (1, 1)


class TestCongestCompliance:
    def test_one_message_per_node_per_round(self):
        """The send schedule is collision-free: the Network would raise
        CongestionError otherwise, but check node_sends directly too."""
        g = random_graph(10, p=0.4, w_max=5, zero_fraction=0.4, seed=3)
        res = run_apsp(g)
        # every send is one broadcast op; rounds with sends <= rounds
        assert res.metrics.max_node_sends <= res.metrics.rounds

    def test_message_size_constant_words(self):
        g = random_graph(8, p=0.4, w_max=5, seed=2)
        res = run_apsp(g)
        assert res.metrics.max_message_words <= 5

    def test_undirected_broadcast_mode(self):
        """An undirected graph is a symmetric digraph, so broadcasting
        over out-arcs reaches every neighbour."""
        g = random_graph(8, p=0.3, w_max=4, zero_fraction=0.3,
                         directed=False, seed=6)
        res = run_apsp(g)
        for x in range(g.n):
            assert res.dist[x] == dijkstra(g, x)[0]


class TestTracing:
    def test_trace_records_send_and_insert(self):
        g = random_graph(6, p=0.4, w_max=3, seed=1)
        trace = TraceRecorder()
        run_hk_ssp(g, [0], 3, trace=trace)
        kinds = {e.kind for e in trace}
        assert "send" in kinds and "insert" in kinds
        assert all(e.round >= 1 for e in trace)

    def test_invariant1_in_trace(self):
        """Every traced insert happens strictly before its scheduled
        round (Lemma II.12), recomputed from the trace itself."""
        import math
        g = random_graph(9, p=0.35, w_max=5, zero_fraction=0.4, seed=8)
        trace = TraceRecorder()
        run_hk_ssp(g, [0, 3, 6], 4, trace=trace)
        for e in trace.of_kind("insert"):
            d, l, x, kappa, pos = e.data
            assert e.round < math.ceil(kappa + pos)


class TestValidation:
    def test_bad_source_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError):
            run_hk_ssp(g, [7], 2)

    def test_empty_sources_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError):
            run_hk_ssp(g, [], 2)

    def test_bad_hop_bound_rejected(self):
        g = random_graph(5, p=0.4, w_max=3, seed=1)
        with pytest.raises(ValueError):
            run_hk_ssp(g, [0], 0)

    def test_single_node_graph(self):
        g = WeightedDigraph(1)
        res = run_hk_ssp(g, [0], 1)
        assert res.dist[0] == [0]
        assert res.metrics.rounds == 0
