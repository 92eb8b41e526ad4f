"""Tests for the routing-table API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RoutingTable, run_apsp, run_bellman_ford_kssp, run_k_ssp
from repro.graphs import WeightedDigraph, dijkstra, random_graph
from repro.recovery import DynamicRun, EdgeUpdate, NodeLeave

INF = float("inf")


@pytest.fixture
def table():
    g = random_graph(10, p=0.35, w_max=6, zero_fraction=0.3, seed=4)
    res = run_apsp(g)
    return g, RoutingTable.from_result(g, res)


class TestRoutes:
    def test_route_weight_matches_distance(self, table):
        g, rt = table
        rt.validate()
        for x in range(g.n):
            want = dijkstra(g, x)[0]
            for v in range(g.n):
                r = rt.route(x, v)
                if want[v] == INF:
                    assert r is None
                else:
                    assert r.distance == want[v]
                    assert r.path[0] == x and r.path[-1] == v

    def test_next_hop_consistency(self, table):
        """Following next hops step by step reproduces the route."""
        g, rt = table
        for x in range(g.n):
            for v in range(g.n):
                r = rt.route(x, v)
                if r is None or v == x:
                    continue
                walk = [x]
                # note: next hops here are per-source trees; walk the
                # route by re-slicing the path
                for node in r.path[1:]:
                    walk.append(node)
                assert tuple(walk) == r.path

    def test_self_route(self, table):
        _g, rt = table
        r = rt.route(0, 0)
        assert r.path == (0,) and r.hops == 0
        assert rt.next_hop(0, 0) is None

    def test_unreachable_route_none(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 3)])
        res = run_apsp(g)
        rt = RoutingTable.from_result(g, res)
        assert rt.route(1, 0) is None
        assert rt.next_hop(1, 0) is None

    def test_unknown_source_raises(self, table):
        g, _ = table
        res = run_k_ssp(g, [0])
        rt = RoutingTable.from_result(g, res)
        with pytest.raises(KeyError):
            rt.route(3, 1)


class TestTableOutputs:
    def test_forwarding_table(self, table):
        g, rt = table
        ft = rt.forwarding_table(0)
        for v, hop in ft.items():
            assert g.weight(0, hop) is not None
            assert rt.route(0, v).path[1] == hop

    def test_dumps_format(self, table):
        g, rt = table
        text = rt.dumps()
        assert text.startswith("# repro routes v1")
        for line in text.splitlines()[1:]:
            parts = line.split()
            assert parts[0] == "r"
            x, v, d = int(parts[1]), int(parts[2]), int(parts[3])
            assert rt.dist[x][v] == d

    def test_works_with_bellman_ford_results(self):
        g = random_graph(8, p=0.35, w_max=5, zero_fraction=0.3, seed=6)
        res = run_bellman_ford_kssp(g, [0, 3])
        rt = RoutingTable.from_result(g, res)
        rt.validate()
        assert rt.sources == [0, 3]

    def test_detects_corrupt_parents(self, table):
        g, rt = table
        # corrupt one parent pointer to a non-edge
        for v in range(1, g.n):
            if rt.parent[0][v] is not None:
                for fake in range(g.n):
                    if fake != v and g.weight(fake, v) is None:
                        rt.parent[0][v] = fake
                        with pytest.raises((AssertionError, ValueError)):
                            rt.validate()
                        return
        pytest.skip("graph too dense to fabricate a non-edge")


class TestUnreachableContract:
    """Disconnected pairs must never raise (the serving layer relies on
    it): distance -> inf, route/next_hop -> None, forwarding_table
    omits.  Caller errors stay loud: unknown source -> KeyError,
    out-of-range target -> ValueError, uniformly."""

    @pytest.fixture
    def sparse(self):
        g = WeightedDigraph.from_edges(4, [(0, 1, 3), (2, 3, 1)])
        res = run_apsp(g)
        return g, RoutingTable.from_result(g, res)

    def test_distance_inf_not_raise(self, sparse):
        _g, rt = sparse
        assert rt.distance(0, 3) == INF
        assert rt.distance(0, 1) == 3

    def test_route_and_next_hop_none(self, sparse):
        _g, rt = sparse
        assert rt.route(0, 2) is None
        assert rt.next_hop(0, 2) is None

    def test_forwarding_table_omits_unreachable_and_self(self, sparse):
        _g, rt = sparse
        assert rt.forwarding_table(0) == {1: 1}
        assert rt.forwarding_table(2) == {3: 3}

    @pytest.mark.parametrize("query", [
        lambda rt: rt.distance(9, 0),
        lambda rt: rt.route(9, 0),
        lambda rt: rt.next_hop(9, 0),
        lambda rt: rt.forwarding_table(9),
    ])
    def test_unknown_source_keyerror(self, sparse, query):
        _g, rt = sparse
        with pytest.raises(KeyError):
            query(rt)

    @pytest.mark.parametrize("query", [
        lambda rt: rt.distance(0, 99),
        lambda rt: rt.route(0, 99),
        lambda rt: rt.next_hop(0, 99),
    ])
    def test_out_of_range_target_valueerror(self, sparse, query):
        _g, rt = sparse
        with pytest.raises(ValueError):
            query(rt)

    def test_forwarding_table_matches_route_walk(self, table):
        g, rt = table
        for x in range(g.n):
            ft = rt.forwarding_table(x)
            for v in range(g.n):
                r = rt.route(x, v)
                if r is None or v == x:
                    assert v not in ft
                else:
                    assert ft[v] == r.path[1]


class TestLoads:
    def test_round_trip(self, table):
        g, rt = table
        back = RoutingTable.loads(rt.dumps(), g)
        assert back.sources == rt.sources
        for x in rt.sources:
            assert back.dist[x] == rt.dist[x]
            for v in range(g.n):
                assert back.route(x, v) == rt.route(x, v)
        assert back.dumps() == rt.dumps()

    def test_round_trip_keeps_isolated_source(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 2)])
        res = run_apsp(g)
        rt = RoutingTable.from_result(g, res)
        back = RoutingTable.loads(rt.dumps(), g)
        # node 2 has no outgoing edges: no route lines, but it is still
        # a routed source after the round-trip.
        assert 2 in back.dist
        assert back.distance(2, 2) == 0
        assert back.distance(2, 0) == INF

    def test_loads_legacy_header_infers_sources(self, table):
        g, rt = table
        text = rt.dumps()
        head, rest = text.split("\n", 1)
        legacy = f"# repro routes v1 n={g.n}\n" + rest
        back = RoutingTable.loads(legacy, g)
        assert set(back.sources) <= set(rt.sources)
        for x in back.sources:
            assert back.dist[x] == rt.dist[x]

    def test_loads_rejects_garbage(self, table):
        g, _rt = table
        with pytest.raises(ValueError):
            RoutingTable.loads("not a dump\n", g)
        with pytest.raises(ValueError):
            RoutingTable.loads(f"# repro routes v1 n={g.n + 5}\n", g)
        with pytest.raises(ValueError):
            RoutingTable.loads(
                f"# repro routes v1 n={g.n}\nr 0 1\n", g)

    def test_loads_validates(self, table):
        g, rt = table
        assert RoutingTable.loads(rt.dumps(), g).validate() == []


class TestValidateReportsAll:
    def test_clean_table_returns_empty(self, table):
        _g, rt = table
        assert rt.validate() == []

    def test_collects_every_violation(self, table):
        g, rt = table
        # Corrupt two independent entries: a wrong distance and a broken
        # parent chain; validate must report both, not stop at one.
        reach = [(x, v) for x in range(g.n) for v in range(g.n)
                 if x != v and rt.dist[x][v] != INF]
        (x1, v1), (x2, v2) = reach[0], reach[-1]
        rt.dist[x1][v1] += 1
        rt.parent[x2][v2] = None
        violations = rt.validate(raise_on_violation=False)
        assert len(violations) >= 2
        assert any(f"{x1}->{v1}" in s for s in violations)
        assert any(f"{x2} -> {v2}" in s or f"{x2}->{v2}" in s
                   for s in violations)
        with pytest.raises(AssertionError) as exc:
            rt.validate()
        assert "violation(s)" in str(exc.value)

    def test_self_distance_checked(self, table):
        _g, rt = table
        rt.dist[0][0] = 7
        bad = rt.validate(raise_on_violation=False)
        assert any("self-distance" in s for s in bad)


class TestAllResultTypesRoutable:
    """Every APSP result type must carry parent pointers usable by
    RoutingTable (found during verification: Algorithm 3's results
    lacked them, though the paper's output spec requires the last
    edge)."""

    def test_blocker_and_sampled_results(self):
        from repro.core import run_apsp_blocker, run_apsp_sampled
        g = random_graph(9, p=0.35, w_max=5, zero_fraction=0.3, seed=8)
        for res in (run_apsp_blocker(g, h=3),
                    run_apsp_blocker(g, h=3, concurrent_sssp=True),
                    run_apsp_sampled(g, h=3, seed=1)):
            rt = RoutingTable.from_result(g, res)
            rt.validate()
            for x in range(g.n):
                want = dijkstra(g, x)[0]
                for v in range(g.n):
                    r = rt.route(x, v)
                    assert (r is None) == (want[v] == INF)
                    if r is not None:
                        assert r.distance == want[v]


@st.composite
def churned_graphs(draw):
    """(graph, batches): a small graph with zero-weight arcs, nodes some
    sources cannot reach and (half the time) undirected edges, and one
    to three batches of raises, lowers, deletions, insertions and node
    leaves."""
    n = draw(st.integers(min_value=2, max_value=8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(
        st.tuples(pair, st.integers(0, 3)).map(lambda e: (*e[0], e[1])),
        max_size=2 * n))
    if draw(st.booleans()):
        g = WeightedDigraph.undirected_from_edges(n, edges)
    else:
        g = WeightedDigraph.from_edges(n, edges)
    arcs = sorted(g.edges())

    def event():
        kind = draw(st.sampled_from(
            ["raise", "lower", "delete", "insert", "leave"]))
        if kind == "leave":
            return NodeLeave(draw(st.integers(0, n - 1)))
        if kind == "insert" or not arcs:
            u, v = draw(pair)
            return EdgeUpdate(u, v, draw(st.integers(0, 3)))
        u, v, w = draw(st.sampled_from(arcs))
        if kind == "raise":
            return EdgeUpdate(u, v, w + draw(st.integers(1, 3)))
        if kind == "lower":
            return EdgeUpdate(u, v, draw(st.integers(0, w)))
        return EdgeUpdate(u, v, None)

    batches = [[event() for _ in range(draw(st.integers(1, 3)))]
               for _ in range(draw(st.integers(1, 3)))]
    return g, batches


class TestPatchedRows:
    """``routes(x, prev)`` patches an earlier row of x: it must equal
    ``routes(x)`` entry for entry and hold the old ``Route`` object
    exactly where the target's distance and whole chain to x are
    unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(case=churned_graphs())
    def test_patch_equals_rebuild_and_keeps_unchanged_routes(self, case):
        g, batches = case
        run = DynamicRun(g, method="pipelined")
        table = RoutingTable(run.graph, run.table, run.parents)
        rows = {s: table.routes(s) for s in run.sources}
        for batch in batches:
            run.apply(*batch)
            table = RoutingTable(run.graph, run.table, run.parents)
            for s, old in rows.items():
                want = table.routes(s)
                got = table.routes(s, old)
                assert got == want
                for v, r in enumerate(old):
                    if r is not None:
                        # Route equality is distance and path equality.
                        assert (got[v] is r) == (r == want[v]), (s, v)
                rows[s] = got

    def test_ancestor_tie_reparent_rebuilds_its_subtree(self):
        # 0 -> 1 -> 3 -> 4 and 0 -> 2 -> 3, unit weights: node 3 is at
        # distance 2 through 1 or 2.  It re-parents from 1 to 2 on that
        # tie; target 4 keeps its parent (3) and distance (3), but its
        # path is new.
        g = WeightedDigraph.from_edges(
            5, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)])
        dist = {0: [0, 1, 1, 2, 3]}
        old = RoutingTable(g, dist, {0: [None, 0, 0, 1, 3]}).routes(0)
        table = RoutingTable(g, dist, {0: [None, 0, 0, 2, 3]})
        row = table.routes(0, old)
        assert row == table.routes(0)
        assert row[4].path == (0, 2, 3, 4)
        assert [row[v] is old[v] for v in range(5)] == [
            True, True, True, False, False]

    def test_changed_distance_keeps_the_path_tuple(self):
        # Raising 0 -> 1 moves 1's and 2's distances, not their chains:
        # new routes, the old path tuples.
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        old = RoutingTable(g, {0: [0, 1, 2]}, {0: [None, 0, 1]}).routes(0)
        table = RoutingTable(g, {0: [0, 4, 5]}, {0: [None, 0, 1]})
        row = table.routes(0, old)
        assert row == table.routes(0)
        assert row[0] is old[0]
        for v in (1, 2):
            assert row[v] is not old[v] and row[v].path is old[v].path

    def test_broken_chain_raises_as_without_the_old_row(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        old = RoutingTable(g, {0: [0, 1, 2]}, {0: [None, 0, 1]}).routes(0)
        table = RoutingTable(g, {0: [0, 1, 2]}, {0: [None, 0, None]})
        for prev in (None, old):
            with pytest.raises(ValueError, match="routing 0 -> 2"):
                table.routes(0, prev)
