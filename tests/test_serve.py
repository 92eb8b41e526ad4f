"""Tests for the distance-oracle serving layer (repro.serve)."""

import asyncio
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import WeightedDigraph, dijkstra, random_graph
from repro.obs import MetricsRegistry
from repro.recovery import EdgeUpdate, NodeJoin, NodeLeave
from repro.serve import (
    AsyncFrontend,
    DistanceOracle,
    Query,
    RouteCache,
    generate_workload,
    serve_stream,
)

INF = float("inf")


@pytest.fixture(scope="module")
def graph():
    return random_graph(20, p=0.3, w_max=8, zero_fraction=0.2, seed=11)


@pytest.fixture
def oracle(graph):
    return DistanceOracle(graph, method="bellman-ford")


def truth(graph):
    return {u: dijkstra(graph, u)[0] for u in range(graph.n)}


class TestWorkload:
    def test_deterministic(self):
        a = generate_workload(32, 500, seed=5)
        b = generate_workload(32, 500, seed=5)
        assert a.queries == b.queries

    def test_seed_changes_stream(self):
        a = generate_workload(32, 500, seed=5)
        b = generate_workload(32, 500, seed=6)
        assert a.queries != b.queries

    def test_zipf_skew_concentrates(self):
        wl = generate_workload(64, 4000, seed=0, skew=1.2)
        # A skewed stream revisits pairs: far fewer distinct pairs than
        # queries (the property caching relies on).
        assert wl.distinct_pairs() < len(wl) / 2

    def test_sources_restricted(self):
        wl = generate_workload(16, 200, seed=1, sources=[2, 5])
        assert {q.u for q in wl} <= {2, 5}

    def test_kinds_mixed(self):
        wl = generate_workload(16, 300, seed=2, path_fraction=0.5)
        kinds = {q.kind for q in wl}
        assert kinds == {"distance", "path"}

    def test_batches_cover_stream(self):
        wl = generate_workload(16, 103, seed=3)
        chunks = list(wl.batches(25))
        assert [q for c in chunks for q in c] == list(wl.queries)
        assert max(len(c) for c in chunks) <= 25

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "num_queries": 1},
        {"n": 4, "num_queries": -1},
        {"n": 4, "num_queries": 1, "skew": -1},
        {"n": 4, "num_queries": 1, "path_fraction": 2.0},
        {"n": 4, "num_queries": 1, "sources": []},
        {"n": 4, "num_queries": 1, "sources": [9]},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            generate_workload(**kwargs)

    def test_query_kind_validated(self):
        with pytest.raises(ValueError):
            Query(0, 1, "teleport")


class TestRouteCache:
    def test_counters_and_hit_rate(self):
        c = RouteCache()
        c.count_batch(1, 1)
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_counts_stay_exact_across_threads(self):
        # More threads than cores and a short switch interval: a lost
        # read-modify-write would show in the totals.
        c = RouteCache()
        rounds = 2000

        def count():
            for _ in range(rounds):
                c.count_batch(2, 1)
                c.count_invalidations(1)

        threads = [threading.Thread(target=count) for _ in range(8)]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        total = 8 * rounds
        assert (c.hits, c.misses, c.invalidations) == (
            2 * total, total, total)

    def test_cached_none_distinct_from_miss(self):
        # A row's None entries are unreachable targets, not a missing
        # row: the second query of an unreachable pair is a hit.
        g = WeightedDigraph.from_edges(3, [(0, 1, 2)])
        o = DistanceOracle(g, method="bellman-ford")
        assert o.path(0, 2) is None
        assert o.view.routes[0][2] is None
        assert o.path(0, 2) is None
        assert (o.cache.hits, o.cache.misses) == (1, 1)

    def test_invalidate_sources_selective(self):
        # A refresh carries every row of an unaffected source into the
        # new view, by identity, and drops exactly the affected rows.
        g = WeightedDigraph.from_edges(
            4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        o = DistanceOracle(g, method="bellman-ford")
        o.serve([Query(u, 3, "path") for u in range(4)])
        old = dict(o.view.routes)
        rec = o.refresh(EdgeUpdate(2, 3, 5))
        assert set(rec.affected_sources) == {0, 1, 2}
        assert rec.invalidated_entries == 3 == o.cache.invalidations
        assert list(o.view.routes) == [3]
        assert o.view.routes[3] is old[3]

    def test_registry_mirroring(self):
        reg = MetricsRegistry()
        c = RouteCache(registry=reg)
        c.count_batch(1, 1)
        c.count_invalidations(1)
        snap = reg.snapshot()["counters"]
        assert snap["serve.cache_hits"] == 1
        assert snap["serve.cache_misses"] == 1
        assert snap["serve.cache_invalidations"] == 1


@st.composite
def routing_graphs(draw):
    """Small graphs with zero-weight arcs, nodes some sources cannot
    reach, and (half the time) undirected edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
        max_size=2 * n))
    if draw(st.booleans()):
        return WeightedDigraph.undirected_from_edges(n, edges)
    return WeightedDigraph.from_edges(n, edges)


class TestRouteRows:
    @settings(max_examples=60, deadline=None)
    @given(g=routing_graphs())
    def test_row_entries_equal_table_routes(self, g):
        """Every entry of every stored row equals the table's own
        route walk, ``None`` where unreachable, ``(u,)`` for u -> u."""
        o = DistanceOracle(g, method="bellman-ford")
        every = [Query(u, v, "path") for u in range(g.n)
                 for v in range(g.n)]
        served = o.serve(every)
        rows = o.view.routes
        assert sorted(rows) == list(range(g.n))
        table = o.view.table
        for u, row in rows.items():
            assert row == [table.route(u, v) for v in range(g.n)]
            assert row[u].path == (u,)
        assert served == [rows[q.u][q.v] for q in every]

    @pytest.mark.parametrize("corrupt", ["orphan", "cycle"])
    def test_broken_parent_chain_names_the_pair(self, corrupt):
        # 0 -> 1 -> 2 -> 3 and 0 -> 4: node 3 is a leaf of 0's tree,
        # so only the pair 0 -> 3 is broken.
        g = WeightedDigraph.from_edges(
            5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1)])
        o = DistanceOracle(g, method="bellman-ford")
        parent = o.view.table.parent[0]
        if corrupt == "orphan":
            parent[3] = None
        else:
            parent[3], parent[4] = 4, 3
        with pytest.raises(ValueError, match="routing 0 -> 3"):
            o.path(0, 3)
        with pytest.raises(ValueError, match="routing 0 -> 3"):
            o.path(0, 4)  # the row is built whole

    def test_every_pair_twice_second_pass_never_misses(self):
        # 65 * 65 = 4225 routes, more than the 4096 a pair-keyed LRU
        # held: served in order, such a store missed every query of
        # the second pass.  Rows hold every route of a source.
        g = random_graph(65, p=0.1, w_max=6, zero_fraction=0.2, seed=3)
        o = DistanceOracle(g)
        every = [Query(u, v, "path") for u in range(g.n)
                 for v in range(g.n)]
        first = o.serve(every)
        misses = o.cache.misses
        assert o.serve(every) == first
        assert o.cache.misses == misses
        assert len(o.view.routes) == g.n
        rows = dict(o.view.routes)
        u, v, w = sorted(g.edges())[0]
        rec = o.refresh(EdgeUpdate(u, v, w + 5))
        affected = set(rec.affected_sources)
        assert 0 < len(affected) < g.n
        assert rec.invalidated_entries == len(affected)
        assert len(o.view.routes) == g.n - rec.invalidated_entries
        # Only the affected sources' rows are rebuilt.
        assert o.serve(every) == o.serve_naive(every)
        for s, row in o.view.routes.items():
            assert (row is rows[s]) == (s not in affected)


class TestOracleQueries:
    def test_distances_match_dijkstra(self, graph, oracle):
        want = truth(graph)
        for u in range(graph.n):
            for v in range(graph.n):
                assert oracle.distance(u, v) == want[u][v]

    def test_paths_are_genuine(self, graph, oracle):
        want = truth(graph)
        for u in (0, 7, 13):
            for v in range(graph.n):
                r = oracle.path(u, v)
                if want[u][v] == INF:
                    assert r is None
                    continue
                assert r.distance == want[u][v]
                assert r.path[0] == u and r.path[-1] == v
                total = 0
                for a, b in zip(r.path, r.path[1:]):
                    w = graph.weight(a, b)
                    assert w is not None
                    total += w
                assert total == r.distance

    def test_unreachable_pair_serves_inf_not_raise(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 2)])
        o = DistanceOracle(g, method="bellman-ford")
        assert o.distance(1, 0) == INF
        assert o.path(1, 0) is None
        assert o.serve([Query(1, 0, "distance")]) == [INF]

    def test_batched_equals_naive(self, graph, oracle):
        wl = generate_workload(graph.n, 1500, seed=4)
        assert {q.kind for q in wl} == {"distance", "path"}
        assert oracle.serve(wl) == oracle.serve_naive(wl)
        # ...and after a refresh, with the cache warm from the pass above.
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        oracle.refresh(EdgeUpdate(u, v, 0))
        assert oracle.serve(wl) == oracle.serve_naive(wl)

    def test_batch_cache_consistency_second_pass(self, graph, oracle):
        wl = generate_workload(graph.n, 800, seed=9)
        first = oracle.serve(wl)
        second = oracle.serve(wl)           # mostly cache hits
        assert first == second
        assert oracle.cache.hits > 0

    def test_subset_sources(self, graph):
        o = DistanceOracle(graph, sources=[3, 8], method="bellman-ford")
        assert o.distance(3, 5) == dijkstra(graph, 3)[0][5]
        for ask in (o.distance, o.path):
            with pytest.raises(KeyError):
                ask(4, 5)

    def test_out_of_range_target_rejected(self, oracle, graph):
        # A negative target must not index a row from its end: checked
        # cold and again with source 0's route row warm.
        for warm in (False, True):
            if warm:
                oracle.serve([Query(0, 1, "path")])
                assert 0 in oracle.view.routes
            for kind in ("distance", "path"):
                for v in (graph.n, graph.n + 3, -1):
                    with pytest.raises(ValueError):
                        oracle.serve([Query(0, v, kind)])

    def test_distance_queries_bypass_the_cache(self, graph, oracle):
        # Distances are row reads: no probe and no write-back, even
        # after path queries filled the view's route rows.
        oracle.serve([Query(0, v, "path") for v in range(graph.n)])
        cache = oracle.cache
        routes = oracle.view.routes
        before = (cache.hits, cache.misses, len(routes))
        want = truth(graph)
        qs = [Query(u, v, "distance") for u in (0, 5) for v in
              range(graph.n)]
        assert oracle.query_batch(qs) == [want[q.u][q.v] for q in qs]
        assert (cache.hits, cache.misses, len(routes)) == before

    @pytest.mark.parametrize("size", [0, -3])
    def test_serve_rejects_non_positive_batch_size(self, graph, oracle,
                                                   size):
        wl = generate_workload(graph.n, 12, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            oracle.serve(wl, batch_size=size)
        with pytest.raises(ValueError, match="batch_size"):
            serve_stream(oracle, wl, batch_size=size)

    def test_constructor_validation(self, graph):
        with pytest.raises(ValueError):
            DistanceOracle(graph, sources=[])
        with pytest.raises(ValueError):
            DistanceOracle(graph, sources=[graph.n])

    @pytest.mark.parametrize("backend", ["reference", "columnar"])
    def test_build_is_one_pipeline_over_all_sources(self, graph, backend):
        """The view's rows are ONE k_ssp over every served source, and
        the build costs exactly that run's rounds."""
        from repro.core.api import k_ssp
        sources = [0, 3, 5, 8, 13, 19]
        o = DistanceOracle(graph, sources=sources, method="pipelined",
                           backend=backend)
        res = k_ssp(graph, sources, method="pipelined", backend=backend)
        assert o.build_rounds == res.metrics.rounds
        table = o.view.table
        assert sorted(table.dist) == sorted(table.parent) == sources
        for s in sources:
            assert table.dist[s] == res.dist[s]
            assert table.parent[s] == res.parent[s]

    def test_metrics_published(self, graph):
        reg = MetricsRegistry()
        o = DistanceOracle(graph, method="bellman-ford", registry=reg)
        o.serve(generate_workload(graph.n, 100, seed=0))
        snap = reg.snapshot()
        assert snap["counters"]["serve.queries"] == 100
        assert snap["counters"]["serve.batches"] >= 1
        assert snap["gauges"]["serve.epoch"] == 0

    def test_validate_shards_clean(self, oracle):
        assert oracle.validate() == []


class TestRefresh:
    def test_epoch_bumps_and_stays_correct(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        rec = o.refresh(EdgeUpdate(u, v, 0))
        assert o.epoch == 1 == rec.epoch
        assert o.oracle_check() == []
        assert o.validate() == []

    def test_inflight_view_survives_swap(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        before = o.view
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        o.refresh(EdgeUpdate(u, v, 0))
        # The captured view still answers with the *old* epoch's table.
        want_old = truth(graph)
        got = o.query_batch([Query(u, v, "distance")], view=before)
        assert got == [want_old[u][v]]
        assert before.epoch == 0 and o.view.epoch == 1

    def test_superseded_view_never_writes_the_cache(self):
        # A batch on a view captured before a refresh reads that view's
        # table and stores its old-epoch row in that view only: the
        # current view never sees it.
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 0), (0, 2, 7)])
        o = DistanceOracle(g, method="pipelined")
        view = o.view
        o.refresh(EdgeUpdate(0, 1, 51))
        [old] = o.query_batch([Query(0, 2, "path")], view=view)
        assert (old.distance, old.path) == (1, (0, 1, 2))
        assert 0 in view.routes and 0 not in o.view.routes
        assert o.path(0, 2).distance == dijkstra(o.graph, 0)[0][2] == 7

    def test_views_share_the_run_rows(self, graph):
        # Each epoch's table holds the run's row lists, not copies; a
        # refresh replaces the repaired sources' rows in the run and
        # leaves the superseded view's rows as they were.
        o = DistanceOracle(graph, method="bellman-ford")
        old = o.view
        before = {}
        for s in o.sources:
            assert old.table.dist[s] is o._dyn.table[s]
            assert old.table.parent[s] is o._dyn.parents[s]
            before[s] = (list(old.table.dist[s]), list(old.table.parent[s]))
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        rec = o.refresh(EdgeUpdate(u, v, 0))
        assert any(o._dyn.table[s] != before[s][0]
                   for s in rec.affected_sources)
        for s in o.sources:
            assert o.view.table.dist[s] is o._dyn.table[s]
            assert o.view.table.parent[s] is o._dyn.parents[s]
            assert (old.table.dist[s], old.table.parent[s]) == before[s]
        assert o.oracle_check() == [] and o.validate() == []

    def test_only_affected_cache_entries_dropped(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        o.serve(generate_workload(graph.n, 1000, seed=6))
        size_before = len(o.view.routes)
        u, v, w = sorted(graph.edges())[0]
        rec = o.refresh(EdgeUpdate(u, v, w + 2))
        unaffected = set(range(graph.n)) - set(rec.affected_sources)
        assert len(o.view.routes) == size_before - rec.invalidated_entries
        # surviving rows all belong to unaffected sources
        assert set(o.view.routes) <= unaffected

    def test_node_leave_and_join(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        victim = 5
        edges = [(u, v, w) for u, v, w in graph.edges() if victim in (u, v)]
        o.refresh(NodeLeave(victim))
        assert o.oracle_check() == []
        assert o.distance(victim, 0) == INF
        o.refresh(NodeJoin(victim, tuple(edges)))
        assert o.oracle_check() == []

    def test_refresh_metrics(self, graph):
        reg = MetricsRegistry()
        o = DistanceOracle(graph, method="bellman-ford", registry=reg)
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        o.refresh(EdgeUpdate(u, v, 0))
        snap = reg.snapshot()
        assert snap["counters"]["serve.refreshes"] == 1
        assert snap["counters"]["serve.refresh_rounds"] > 0
        assert snap["gauges"]["serve.epoch"] == 1
        # One refresh, one positive wall-time observation.
        [hist] = reg.histograms("serve.refresh_s")
        assert hist.count == 1 and hist.total > 0

    def test_no_registry_no_refresh_histogram(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        assert o._refresh_hist is None
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        assert o.refresh(EdgeUpdate(u, v, 0)).epoch == 1

    def test_build_rounds_accumulates(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        base = o.build_rounds
        assert base > 0
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        rec = o.refresh(EdgeUpdate(u, v, 0))
        assert o.build_rounds == base + rec.rounds_to_repair


class TestThreadedServing:
    def test_queries_and_refreshes_leave_nothing_stale(self, graph):
        # More threads than cores and a short switch interval force
        # interleavings of probes, row stores, carry-overs and
        # refreshes.  Two writers: a refresh that read a view another
        # one was replacing would lose an epoch.
        o = DistanceOracle(graph, method="bellman-ford")
        wl = list(generate_workload(graph.n, 400, seed=12))
        readers = 4
        edges = sorted(graph.edges())[:5]
        errors = []

        def reader():
            try:
                for lo in range(0, len(wl), 20):
                    o.query_batch(wl[lo:lo + 20])
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        def writer():
            try:
                for u, v, w in edges:
                    o.refresh(EdgeUpdate(u, v, w + 7))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        threads += [threading.Thread(target=writer) for _ in range(2)]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert o.epoch == 2 * len(edges)
        # Every row the current view holds, carried over or stored by
        # a reader, is the one its own table builds.
        table = o.view.table
        for u, row in o.view.routes.items():
            assert row == table.routes(u), f"stale route row of {u}"
        # A lost counter update would break the tally of path probes.
        paths = sum(q.kind == "path" for q in wl)
        assert o.cache.hits + o.cache.misses == readers * paths
        assert o.oracle_check() == []


class TestCrossBackendDigests:
    def test_bit_identical_build_and_refresh(self, graph):
        digests = {}
        for backend in ("reference", "columnar"):
            o = DistanceOracle(graph, method="pipelined", backend=backend)
            u, v, w = max(graph.edges(), key=lambda e: e[2])
            o.refresh(EdgeUpdate(u, v, 0))
            assert o.oracle_check() == []
            digests[backend] = o.digest()
        assert digests["reference"] == digests["columnar"]


class TestAsyncFrontend:
    def test_point_queries(self, graph, oracle):
        want = truth(graph)

        async def main():
            async with AsyncFrontend(oracle) as fe:
                ds = await asyncio.gather(
                    *(fe.distance(0, v) for v in range(graph.n)))
                r = await fe.path(0, 1)
            return ds, r

        ds, r = asyncio.run(main())
        assert ds == want[0]
        if want[0][1] == INF:
            assert r is None
        else:
            assert r.distance == want[0][1]

    def test_stream_serving_matches_naive(self, graph, oracle):
        wl = generate_workload(graph.n, 600, seed=8)
        got = serve_stream(oracle, wl, batch_size=64)
        assert got == oracle.serve_naive(wl)

    def test_stream_is_one_pool_job(self, graph, oracle):
        # A multi-batch stream crosses to the pool once; the batches
        # are DistanceOracle.serve's, so the answers are its answers.
        wl = generate_workload(graph.n, 600, seed=8)
        want = oracle.serve(wl, batch_size=64)

        async def main():
            async with AsyncFrontend(oracle) as fe:
                submit = fe._pool.submit
                jobs = []

                def counting_submit(fn, *args, **kwargs):
                    jobs.append(fn)
                    return submit(fn, *args, **kwargs)

                fe._pool.submit = counting_submit
                answers = await fe.serve(wl, batch_size=64)
            return jobs, answers

        jobs, answers = asyncio.run(main())
        assert len(jobs) == 1
        assert answers == want

    def test_concurrent_refresh_epoch_consistency(self, graph):
        o = DistanceOracle(graph, method="bellman-ford")
        # Long enough that the four refreshes usually all land
        # mid-stream, on either backend.
        wl = list(generate_workload(graph.n, 80000, seed=3)) * 10
        # Raise the arcs that the most shortest-path routes run
        # through: many answers change at every epoch, so a batch
        # mixing epochs would show.
        through = Counter()
        for s in range(graph.n):
            parent = dijkstra(graph, s)[1]
            for t in range(graph.n):
                while parent[t] is not None:
                    through[parent[t], t] += 1
                    t = parent[t]
        events = [EdgeUpdate(u, v, graph.weight(u, v) + 20)
                  for (u, v), _ in through.most_common(4)]
        batch = 50

        async def main():
            graphs = []
            async with AsyncFrontend(o, max_workers=2) as fe:
                serving = asyncio.ensure_future(
                    fe.serve(wl, batch_size=batch))
                await asyncio.sleep(0)  # the stream's job goes first
                for ev in events:
                    await fe.refresh(ev)
                    graphs.append(o.graph)
                answers = await serving
            return graphs, answers

        # The stream and the refreshes run on the two workers, and a
        # short switch interval interleaves them.
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            graphs, answers = asyncio.run(main())
        finally:
            sys.setswitchinterval(prev)
        assert o.epoch == len(events)
        # Each batch reads one view: all its answers (distances and
        # route distances) match one epoch's truth, and the epochs
        # never go backwards along the stream.
        truths = [truth(graph)] + [truth(g) for g in graphs]
        epoch = 0
        for lo in range(0, len(wl), batch):
            qs = wl[lo:lo + batch]
            got = [a if q.kind == "distance" else (
                INF if a is None else a.distance)
                for q, a in zip(qs, answers[lo:lo + batch])]
            fit = next((e for e in range(epoch, len(truths))
                        if got == [truths[e][q.u][q.v] for q in qs]), None)
            assert fit is not None, (
                f"batch at {lo} matches no epoch from {epoch} on")
            epoch = fit
        # The route rows the final view holds -- carried over from the
        # views before it or stored by the stream -- are its table's.
        table = o.view.table
        for u, row in o.view.routes.items():
            assert row == table.routes(u), f"stale route row of {u}"
        assert o.oracle_check() == []

    def test_bad_point_query_fails_only_its_own_future(self):
        # Three point queries coalesce into one chunk; the bad target
        # must not fail its neighbours, and the retry is one more trip.
        g = random_graph(12, p=0.3, w_max=5, zero_fraction=0.2, seed=4)
        o = DistanceOracle(g, method="bellman-ford")

        async def main():
            async with AsyncFrontend(o) as fe:
                submit = fe._pool.submit
                jobs = []

                def counting_submit(fn, *args, **kwargs):
                    jobs.append(fn)
                    return submit(fn, *args, **kwargs)

                fe._pool.submit = counting_submit
                answers = await asyncio.gather(
                    fe.distance(0, 5), fe.distance(0, 99), fe.path(1, 3),
                    return_exceptions=True)
            return jobs, answers

        jobs, (good, bad, route) = asyncio.run(main())
        assert good == o.distance(0, 5) == dijkstra(g, 0)[0][5]
        assert isinstance(bad, ValueError) and "99" in str(bad)
        assert route == o.path(1, 3)
        assert len(jobs) == 2

    def test_frontend_validation(self, oracle):
        with pytest.raises(ValueError):
            AsyncFrontend(oracle, max_workers=0)
        with pytest.raises(ValueError):
            AsyncFrontend(oracle, max_batch=0).close()

    def test_closed_frontend_rejects(self, oracle):
        async def main():
            fe = AsyncFrontend(oracle)
            await fe.aclose()
            with pytest.raises(RuntimeError):
                await fe.distance(0, 1)

        asyncio.run(main())
