"""Property-based tests (hypothesis) for the core invariants.

These are the paper's invariants and contracts expressed as properties
over randomly generated graph instances:

* the (h, k)-SSP output contract of Algorithm 1 and Algorithm 2;
* Invariant 1 (asserted inside the program on every insert) and the
  one-send-per-round property (asserted inside the simulator);
* Invariant 2's per-source budget;
* Definition III.3 for CSSSP collections, plus Lemmas III.6/III.7;
* blocker coverage and the distributed == centralized agreement;
* the (1+eps) approximation ratio;
* oracle self-consistency (h-hop monotonicity, triangle inequality).
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    build_csssp,
    compute_blocker_set,
    greedy_blocker_reference,
    run_approx_apsp,
    run_hk_ssp,
    run_short_range,
    verify_approx_ratio,
    verify_blocker_coverage,
)
from repro.graphs import dijkstra, hop_limited_sssp
from repro.graphs.validation import (
    assert_triangle_inequality,
    assert_weak_h_hop_contract,
)

from conftest import graph_instances, hk_instances

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])


@settings(max_examples=40, **COMMON)
@given(hk_instances())
def test_pipelined_weak_contract(instance):
    """Algorithm 1 meets the (h, k)-SSP contract on arbitrary instances;
    Invariant 1 and the single-send property are asserted internally."""
    g, sources, h = instance
    res = run_hk_ssp(g, sources, h)
    assert_weak_h_hop_contract(g, res.dist, res.hops, h)


@settings(max_examples=40, **COMMON)
@given(hk_instances())
def test_pipelined_round_and_list_bounds(instance):
    g, sources, h = instance
    res = run_hk_ssp(g, sources, h)
    # Theorem I.1: all guaranteed outputs settled by the bound
    assert res.last_sp_update_round <= res.round_bound
    assert res.metrics.rounds <= res.round_bound
    # Invariant 2 (budget-enforced, +1 slack for the protected SP entry)
    budget = math.floor(math.sqrt(res.delta * h / res.k)) + 1 if res.delta \
        else 1
    assert res.max_entries_per_source <= budget + 1


@settings(max_examples=40, **COMMON)
@given(hk_instances())
def test_pipelined_congest_compliance(instance):
    """No message exceeds O(1) words; channel capacity 1 is never
    violated (the Network raises otherwise -- reaching the assert means
    compliance)."""
    g, sources, h = instance
    res = run_hk_ssp(g, sources, h)
    assert res.metrics.max_message_words <= 5


@settings(max_examples=40, **COMMON)
@given(graph_instances(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10 ** 6))
def test_short_range_contract_and_congestion(gi, h, pick):
    g, _seed = gi
    s = pick % g.n
    res = run_short_range(g, s, h)
    assert_weak_h_hop_contract(g, {s: res.dist}, {s: res.hops}, h,
                               context="short-range")
    assert res.max_node_sends <= math.sqrt(h) + 1
    assert res.metrics.rounds <= res.dilation_bound


@settings(max_examples=25, **COMMON)
@given(graph_instances(n_hi=9), st.integers(min_value=1, max_value=4),
       st.data())
def test_csssp_definition(gi, h, data):
    g, seed = gi
    rng = random.Random(seed)
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    sources = rng.sample(range(g.n), k)
    coll = build_csssp(g, sources, h)
    coll.check_consistency()
    for c in range(g.n):
        coll.in_tree_to(c)
        coll.out_tree_from(c)


@settings(max_examples=20, **COMMON)
@given(graph_instances(n_lo=4, n_hi=9), st.integers(min_value=1, max_value=3))
def test_blocker_distributed_equals_reference(gi, h):
    g, seed = gi
    rng = random.Random(seed)
    sources = rng.sample(range(g.n), max(1, g.n // 2))
    coll = build_csssp(g, sources, h)
    res = compute_blocker_set(g, coll)
    assert res.blockers == greedy_blocker_reference(coll)
    verify_blocker_coverage(coll, res.blockers)
    assert res.alg4_max_rounds <= res.alg4_round_bound


@settings(max_examples=12, **COMMON)
@given(graph_instances(n_lo=4, n_hi=8, w_choices=(0, 1, 6)),
       st.sampled_from([0.75, 1.0, 2.0]))
def test_approx_ratio_property(gi, eps):
    g, _seed = gi
    if eps <= 3.0 / g.n:
        return
    res = run_approx_apsp(g, eps)
    verify_approx_ratio(g, res)


@settings(max_examples=30, **COMMON)
@given(graph_instances())
def test_oracle_triangle_inequality(gi):
    g, _seed = gi
    dist = [dijkstra(g, s)[0] for s in range(g.n)]
    assert_triangle_inequality(g, dist)


@settings(max_examples=30, **COMMON)
@given(graph_instances(), st.integers(min_value=0, max_value=10 ** 6))
def test_oracle_hop_monotone_and_convergent(gi, pick):
    g, _seed = gi
    s = pick % g.n
    prev = None
    for h in range(g.n + 1):
        cur, _ = hop_limited_sssp(g, s, h)
        if prev is not None:
            assert all(c <= p for c, p in zip(cur, prev))
        prev = cur
    # at h = n the DP equals Dijkstra
    assert prev == dijkstra(g, s)[0]


@settings(max_examples=30, **COMMON)
@given(hk_instances())
def test_parent_pointers_are_real_edges(instance):
    g, sources, h = instance
    res = run_hk_ssp(g, sources, h)
    for x in res.sources:
        for v in range(g.n):
            p = res.parent[x][v]
            if p is not None:
                w = g.weight(p, v)
                assert w is not None
                assert res.dist[x][p] + w == res.dist[x][v]
