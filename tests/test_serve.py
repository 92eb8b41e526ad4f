"""Tests for the distance-oracle serving layer (repro.serve)."""

import asyncio
import sys
import threading
from collections import Counter, OrderedDict

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
    return DistanceOracle(graph, num_shards=4, method="bellman-ford",
                          cache_size=256)


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
    def test_lru_eviction_order(self):
        c = RouteCache(2)
        c.put((0, 1), "a")
        c.put((0, 2), "b")
        assert c.get((0, 1)) == "a"      # refreshes (0,1)
        c.put((0, 3), "c")               # evicts (0,2)
        assert c.get((0, 2)) is None
        assert c.get((0, 1)) == "a"
        assert c.evictions == 1

    def test_counters_and_hit_rate(self):
        c = RouteCache(8)
        c.put((1, 2), "x")
        c.get((1, 2))
        c.get((9, 9))
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_cached_none_distinct_from_miss(self):
        c = RouteCache(8)
        sentinel = object()
        c.put((1, 2), None)              # cached unreachable answer
        assert c.get((1, 2), sentinel) is None
        assert c.get((3, 4), sentinel) is sentinel

    def test_capacity_zero_disables(self):
        c = RouteCache(0)
        c.put((0, 1), "a")
        assert len(c) == 0
        assert c.get((0, 1)) is None
        assert c.misses == 1

    def test_invalidate_sources_selective(self):
        c = RouteCache(16)
        for u in (0, 1, 2):
            for v in (5, 6):
                c.put((u, v), u * 10 + v)
        dropped = c.invalidate_sources({0, 2})
        assert dropped == 4
        assert c.get((1, 5)) == 15
        assert c.get((0, 5)) is None

    def test_registry_mirroring(self):
        reg = MetricsRegistry()
        c = RouteCache(4, registry=reg)
        c.put((0, 1), "a")
        c.get((0, 1))
        c.get((0, 2))
        c.invalidate_sources({0})
        snap = reg.snapshot()["counters"]
        assert snap["serve.cache_hits"] == 1
        assert snap["serve.cache_misses"] == 1
        assert snap["serve.cache_invalidations"] == 1

    # A small key space (4 sources x 4 targets) against capacities 0-5
    # forces constant collisions, evictions, and whole-source drops.
    _keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    _ops = st.lists(st.one_of(
        st.tuples(st.just("put"), _keys, st.integers(0, 9)),
        st.tuples(st.just("get"), _keys),
        st.tuples(st.just("invalidate"),
                  st.sets(st.integers(0, 3), max_size=3)),
        st.tuples(st.just("clear")),
    ), max_size=40)

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(0, 5), ops=_ops)
    def test_model_based_lru_consistency(self, capacity, ops):
        """Under arbitrary put/get/invalidate/clear sequences the cache
        tracks a model OrderedDict implementing textbook bounded LRU:
        same contents, same recency order (checked through
        ``batch_view``, whose iteration order IS the eviction order),
        same hit/miss/eviction/invalidation counters after every
        operation."""
        c = RouteCache(capacity)
        model = OrderedDict()
        counts = {"hits": 0, "misses": 0, "evictions": 0,
                  "invalidations": 0}
        for op in ops:
            if op[0] == "put":
                _, key, value = op
                c.put(key, value)
                if capacity > 0:
                    if key in model:
                        model.move_to_end(key)
                    model[key] = value
                    if len(model) > capacity:
                        model.popitem(last=False)
                        counts["evictions"] += 1
            elif op[0] == "get":
                _, key = op
                got = c.get(key, default="MISS")
                if key in model:
                    model.move_to_end(key)
                    counts["hits"] += 1
                    assert got == model[key]
                else:
                    counts["misses"] += 1
                    assert got == "MISS"
            elif op[0] == "invalidate":
                _, sources = op
                stale = [k for k in model if k[0] in sources]
                for k in stale:
                    del model[k]
                counts["invalidations"] += len(stale)
                assert c.invalidate_sources(sources) == len(stale)
            else:  # clear
                counts["invalidations"] += len(model)
                assert c.clear() == len(model)
                model.clear()
            assert list(c.batch_view().items()) == list(model.items())
            assert len(c) == len(model)
            assert (c.hits, c.misses, c.evictions, c.invalidations) == (
                counts["hits"], counts["misses"], counts["evictions"],
                counts["invalidations"])
        total = counts["hits"] + counts["misses"]
        assert c.hit_rate == (counts["hits"] / total if total else 0.0)
        assert c.stats()["size"] == len(model)


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
        o = DistanceOracle(g, num_shards=1, method="bellman-ford")
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
        o = DistanceOracle(graph, sources=[3, 8], num_shards=2,
                           method="bellman-ford")
        assert o.distance(3, 5) == dijkstra(graph, 3)[0][5]
        for ask in (o.distance, o.path):
            with pytest.raises(KeyError):
                ask(4, 5)

    def test_out_of_range_target_rejected(self, oracle, graph):
        # A negative target must not index the distance row from its end.
        for kind in ("distance", "path"):
            for v in (graph.n + 3, -1):
                with pytest.raises(ValueError):
                    oracle.serve([Query(0, v, kind)])

    def test_distance_queries_bypass_the_cache(self, graph, oracle):
        # Distances are row reads: no probe, no write-back, no
        # eviction, even after path queries filled the cache.
        oracle.serve([Query(0, v, "path") for v in range(graph.n)])
        cache = oracle.cache
        before = (cache.hits, cache.misses, cache.evictions, len(cache))
        want = truth(graph)
        qs = [Query(u, v, "distance") for u in (0, 5) for v in
              range(graph.n)]
        assert oracle.query_batch(qs) == [want[q.u][q.v] for q in qs]
        assert (cache.hits, cache.misses, cache.evictions,
                len(cache)) == before

    def test_constructor_validation(self, graph):
        with pytest.raises(ValueError):
            DistanceOracle(graph, sources=[])
        with pytest.raises(ValueError):
            DistanceOracle(graph, sources=[graph.n])
        with pytest.raises(ValueError):
            DistanceOracle(graph, num_shards=graph.n + 1)

    def test_sharding_partitions_all_sources(self, graph):
        o = DistanceOracle(graph, num_shards=3, method="bellman-ford")
        seen = [s for shard in o.view.shards for s in shard.sources]
        assert sorted(seen) == list(range(graph.n))
        assert len(o.view.shards) == 3

    @pytest.mark.parametrize("backend", ["reference", "columnar"])
    def test_build_is_one_pipeline_over_all_sources(self, graph, backend):
        """The shards are slices of ONE k_ssp over every served source,
        and the build costs exactly that run's rounds."""
        from repro.core.api import k_ssp
        sources = [0, 3, 5, 8, 13, 19]
        o = DistanceOracle(graph, sources=sources, num_shards=3,
                           method="pipelined", backend=backend)
        res = k_ssp(graph, sources, method="pipelined", backend=backend)
        assert o.build_rounds == res.metrics.rounds
        for shard in o.view.shards:
            for s in shard.sources:
                assert shard.table.dist[s] == res.dist[s]
                assert shard.table.parent[s] == res.parent[s]

    def test_metrics_published(self, graph):
        reg = MetricsRegistry()
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford",
                           registry=reg)
        o.serve(generate_workload(graph.n, 100, seed=0))
        snap = reg.snapshot()
        assert snap["counters"]["serve.queries"] == 100
        assert snap["counters"]["serve.batches"] >= 1
        assert snap["gauges"]["serve.epoch"] == 0

    def test_validate_shards_clean(self, oracle):
        assert oracle.validate_shards() == []


class TestRefresh:
    def test_epoch_bumps_and_stays_correct(self, graph):
        o = DistanceOracle(graph, num_shards=4, method="bellman-ford")
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        rec = o.refresh(EdgeUpdate(u, v, 0))
        assert o.epoch == 1 == rec.epoch
        assert o.oracle_check() == []
        assert o.validate_shards() == []

    def test_unaffected_shards_not_rebuilt(self, graph):
        o = DistanceOracle(graph, num_shards=4, method="bellman-ford")
        old = o.view
        # A weight increase on a heavy edge rarely touches every source;
        # find an update affecting a strict subset.
        for u, v, w in sorted(graph.edges()):
            rec = o.refresh(EdgeUpdate(u, v, w + 1))
            if 0 < len(rec.affected_sources) < graph.n:
                break
        else:
            pytest.skip("no partially-affecting update on this graph")
        kept = set(range(4)) - set(rec.rebuilt_shards)
        assert rec.rebuilt_shards, "some shard must rebuild"
        for i in kept:
            # Object identity: untouched shards are carried over, not
            # recomputed.
            assert o.view.shards[i] is old.shards[i]
        assert {s.epoch for s in o.view.shards if s.index in
                set(rec.rebuilt_shards)} == {o.epoch}

    def test_inflight_view_survives_swap(self, graph):
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford")
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
        # table, but must not cache its old-epoch route after the
        # refresh invalidated the source.
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 0), (0, 2, 7)])
        o = DistanceOracle(g, method="pipelined")
        view = o.view
        o.refresh(EdgeUpdate(0, 1, 51))
        [old] = o.query_batch([Query(0, 2, "path")], view=view)
        assert (old.distance, old.path) == (1, (0, 1, 2))
        assert o.path(0, 2).distance == dijkstra(o.graph, 0)[0][2] == 7

    def test_only_affected_cache_entries_dropped(self, graph):
        o = DistanceOracle(graph, num_shards=4, method="bellman-ford")
        o.serve(generate_workload(graph.n, 1000, seed=6))
        size_before = len(o.cache)
        u, v, w = sorted(graph.edges())[0]
        rec = o.refresh(EdgeUpdate(u, v, w + 2))
        unaffected = set(range(graph.n)) - set(rec.affected_sources)
        assert len(o.cache) == size_before - rec.invalidated_entries
        # surviving entries all belong to unaffected sources
        assert all(k[0] in unaffected for k in o.cache._data)

    def test_node_leave_and_join(self, graph):
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford")
        victim = 5
        edges = [(u, v, w) for u, v, w in graph.edges() if victim in (u, v)]
        o.refresh(NodeLeave(victim))
        assert o.oracle_check() == []
        assert o.distance(victim, 0) == INF
        o.refresh(NodeJoin(victim, tuple(edges)))
        assert o.oracle_check() == []

    def test_refresh_metrics(self, graph):
        reg = MetricsRegistry()
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford",
                           registry=reg)
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        o.refresh(EdgeUpdate(u, v, 0))
        snap = reg.snapshot()
        assert snap["counters"]["serve.refreshes"] == 1
        assert snap["counters"]["serve.refresh_rounds"] > 0
        assert snap["gauges"]["serve.epoch"] == 1

    def test_build_rounds_accumulates(self, graph):
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford")
        base = o.build_rounds
        assert base > 0
        u, v, w = max(graph.edges(), key=lambda e: e[2])
        rec = o.refresh(EdgeUpdate(u, v, 0))
        assert o.build_rounds == base + rec.rounds_to_repair


class TestThreadedServing:
    def test_queries_and_refreshes_leave_nothing_stale(self, graph):
        # More threads than cores and a short switch interval force
        # interleavings of probes, write-backs and refreshes.  Two
        # writers: a refresh that read a view another one was replacing
        # would lose an epoch.
        o = DistanceOracle(graph, num_shards=4, method="bellman-ford",
                           cache_size=64)
        wl = list(generate_workload(graph.n, 400, seed=12))
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

        threads = [threading.Thread(target=reader) for _ in range(4)]
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
        assert o.oracle_check() == []


class TestCrossBackendDigests:
    def test_bit_identical_build_and_refresh(self, graph):
        digests = {}
        for backend in ("reference", "columnar"):
            o = DistanceOracle(graph, num_shards=3,
                               method="pipelined", backend=backend)
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
        o = DistanceOracle(graph, num_shards=2, method="bellman-ford")
        wl = list(generate_workload(graph.n, 80000, seed=3))
        # Raise the arc that the most shortest-path routes run through:
        # many answers change, so a batch mixing epochs would show.
        through = Counter()
        for s in range(graph.n):
            parent = dijkstra(graph, s)[1]
            for t in range(graph.n):
                while parent[t] is not None:
                    through[parent[t], t] += 1
                    t = parent[t]
        [((u, v), _)] = through.most_common(1)
        batch = 50

        async def main():
            async with AsyncFrontend(o, max_workers=2) as fe:
                serving = asyncio.ensure_future(
                    fe.serve(wl, batch_size=batch))
                await asyncio.sleep(0)  # the stream's job goes first
                await fe.refresh(
                    EdgeUpdate(u, v, graph.weight(u, v) + 20))
                answers = await serving
            return answers

        # The stream and the refresh run on the two workers, and a
        # short switch interval interleaves them: the stream is long
        # enough that the swap often lands mid-stream.
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            answers = asyncio.run(main())
        finally:
            sys.setswitchinterval(prev)
        # Each batch reads one view: all its answers (distances and
        # route distances) match one epoch's truth, and the epochs
        # never go backwards along the stream.
        truths = [truth(graph), truth(o.graph)]
        epoch = 0
        for lo in range(0, len(wl), batch):
            qs = wl[lo:lo + batch]
            got = [a if q.kind == "distance" else (
                INF if a is None else a.distance)
                for q, a in zip(qs, answers[lo:lo + batch])]
            fits = [e for e in range(epoch, len(truths))
                    if got == [truths[e][q.u][q.v] for q in qs]]
            assert fits, f"batch at {lo} matches no epoch from {epoch} on"
            epoch = fits[0]
        assert o.oracle_check() == []

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
