"""The distance oracle: pipelined APSP tables behind a query surface.

:class:`DistanceOracle` is the product the paper's algorithms exist
for.  It materializes full distance + next-hop tables with **one**
k-source pipeline over every served source, slices the rows into
round-robin **shards** (the unit a refresh rebuilds and swaps), wraps
each shard in a :class:`~repro.core.RoutingTable`, and answers
``distance(u, v)`` / ``path(u, v)`` point queries out of them.  A
distance answer is one read of the epoch's ``dist[u][v]`` (the exact
distance Theorem I.1 leaves at every node), and a path answer one read
of its source's *route row*: every route from that source, built in
one pass over its parent row the first time the epoch is asked for
one (:mod:`repro.serve.cache`).

Epoch-versioned tables
----------------------
All shard state hangs off one immutable :class:`TableView` object; a
query batch captures the current view once and reads only it, so a
concurrent :meth:`DistanceOracle.refresh` -- which builds *new* shard
objects for the affected sources and publishes a whole new view -- can
never show a query a half-swapped table.  In-flight queries simply
finish against the epoch they started on.

The route store holds rows of the current view only.  Its one lock
(:attr:`RouteCache.lock`) is taken twice per batch -- once for the
pass that resolves the view and reads the answers, once to write the
newly built rows back -- and once per refresh, around publishing the
new view and dropping the affected sources' rows.  A batch whose view
is no longer current neither reads nor writes the store, so a row
built on a superseded table can never land after the invalidation
that should have dropped it.  Refreshes are serialized by their own
lock.

Incremental refresh
-------------------
Edge/node churn goes through :class:`repro.recovery.DynamicRun` (with
``keep_parents``): only the sources the update can affect are
recomputed by the k-source pipeline, only the shards containing them
are rebuilt, and only those sources' route rows are dropped -- rows
of unaffected sources stay stored and correct across the swap.
``tests/test_serve_churn.py`` property-checks the end-to-end guarantee
against the Dijkstra oracle.

Batched execution
-----------------
:meth:`DistanceOracle.query_batch` makes one pass over the batch: a
distance query is one lookup of its source's row in
:attr:`TableView.dist`, a path query one lookup of its source's route
row in the store.  Only the sources without a row are grouped, and
each gets its row built once, outside the lock.
:meth:`DistanceOracle.serve` cuts a stream into batches, and the
asyncio front-end (:mod:`repro.serve.frontend`) runs a whole stream as
one thread-pool job.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.routing import INF, Route, RoutingTable
from ..graphs.digraph import WeightedDigraph
from .cache import RouteCache
from .workload import Query, check_batch_size


@dataclass(frozen=True)
class TableShard:
    """One source-partition's routing table at one epoch."""

    index: int
    sources: Tuple[int, ...]
    table: RoutingTable
    epoch: int


@dataclass(frozen=True)
class TableView:
    """An immutable snapshot of every shard at one epoch.

    ``shard_of`` maps source -> shard index, and ``dist`` maps source
    -> its shard's distance row (gathered once per view, so a distance
    read is one lookup).  A refresh replaces the whole view; readers
    that captured the old one keep a complete, consistent table for
    the duration of their query.
    """

    epoch: int
    shards: Tuple[TableShard, ...]
    shard_of: Dict[int, int]
    dist: Dict[int, List[float]] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dist", {
            s: shard.table.dist[s]
            for shard in self.shards for s in shard.sources})

    def shard_for(self, source: int) -> TableShard:
        idx = self.shard_of.get(source)
        if idx is None:
            raise KeyError(f"{source} is not a served source")
        return self.shards[idx]


@dataclass(frozen=True)
class RefreshRecord:
    """What one :meth:`DistanceOracle.refresh` did."""

    epoch: int
    affected_sources: Tuple[int, ...]
    rebuilt_shards: Tuple[int, ...]
    rounds_to_repair: int
    #: Route rows dropped from the store (one per affected source that
    #: had one).
    invalidated_entries: int


def _walked_weight(graph: WeightedDigraph,
                   path: Sequence[int]) -> Optional[float]:
    """The summed arc weights along *path* in *graph*, or ``None`` if
    it uses an arc the graph does not have."""
    total = 0
    for a, b in zip(path, path[1:]):
        w = graph.weight(a, b)
        if w is None:
            return None
        total += w
    return total


class DistanceOracle:
    """Serve point-to-point shortest-path queries from pipelined APSP.

    Parameters
    ----------
    graph:
        The :class:`~repro.graphs.WeightedDigraph` to serve.
    sources:
        Query origins to materialize (default: every node = APSP).
    num_shards:
        Source partitions; each is rebuilt and swapped independently on
        refresh (default: ~sqrt(k), capped so a shard never goes
        empty).  The initial build is one run over all sources either
        way.
    method / backend:
        Passed to :func:`repro.core.api.k_ssp` (``"auto"`` is resolved
        once, for the whole source set) -- the default columnar engine
        serves strictly fresher tables for the same wall-clock.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`; the oracle
        publishes ``serve.queries``, ``serve.batches``,
        ``serve.cache_*``, ``serve.refreshes``,
        ``serve.refresh_rounds``, a ``serve.epoch`` gauge and a
        ``serve.refresh_s`` histogram (each :meth:`refresh` call's wall
        time in seconds, waiting for a concurrent refresh included)
        into it.
    """

    def __init__(self, graph: WeightedDigraph,
                 sources: Optional[Sequence[int]] = None, *,
                 num_shards: Optional[int] = None,
                 method: str = "auto",
                 backend: Optional[str] = None,
                 registry: Any = None) -> None:
        if sources is None:
            sources = range(graph.n)
        self.sources: Tuple[int, ...] = tuple(dict.fromkeys(sources))
        if not self.sources:
            raise ValueError("need at least one source to serve")
        for s in self.sources:
            if not (0 <= s < graph.n):
                raise ValueError(
                    f"source {s} out of range for n={graph.n}")
        k = len(self.sources)
        if num_shards is None:
            num_shards = max(1, int(round(k ** 0.5)))
        if not (1 <= num_shards <= k):
            raise ValueError(
                f"num_shards must be in [1, {k}], got {num_shards}")
        self.num_shards = num_shards
        self.method = method
        self.backend = backend
        self.registry = registry
        self.cache = RouteCache(registry=registry)
        self._refresh_lock = threading.Lock()
        self._queries = registry.counter("serve.queries") \
            if registry is not None else None
        self._batches = registry.counter("serve.batches") \
            if registry is not None else None
        self._epoch_gauge = registry.gauge("serve.epoch") \
            if registry is not None else None
        self._refresh_hist = registry.histogram(
            "serve.refresh_s", scale=1e-6) if registry is not None else None

        self.graph = graph
        self._partitions: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(self.sources[i::num_shards]) for i in range(num_shards))
        self._dyn = None  # lazy: built on first refresh
        self.refreshes: List[RefreshRecord] = []
        self._build_rounds = 0
        self._view = self._materialize()
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(self._view.epoch)

    # -- table materialization ----------------------------------------

    def _materialize(self) -> TableView:
        """Run the k-source pipeline once over every served source and
        slice its rows into the epoch-0 shards.  One pipeline, not one
        per shard: Theorem I.1(iii)'s ``2 sqrt(Delta k n) + n + k``
        rounds grow less than linearly in k, so ~sqrt(k) separate runs
        would pay several times the rounds."""
        from ..core.api import k_ssp
        res = k_ssp(self.graph, list(self.sources), method=self.method,
                    backend=self.backend)
        self._build_rounds += res.metrics.rounds
        shards: List[TableShard] = []
        shard_of: Dict[int, int] = {}
        for i, part in enumerate(self._partitions):
            table = RoutingTable(
                self.graph,
                {s: res.dist[s] for s in part},
                {s: res.parent[s] for s in part})
            shards.append(TableShard(i, part, table, epoch=0))
            for s in part:
                shard_of[s] = i
        return TableView(0, tuple(shards), shard_of)

    @property
    def epoch(self) -> int:
        return self._view.epoch

    @property
    def view(self) -> TableView:
        """The current immutable table snapshot (capture once per
        query batch for epoch-consistent reads)."""
        return self._view

    @property
    def build_rounds(self) -> int:
        """Total CONGEST rounds spent materializing tables so far
        (initial build + every refresh)."""
        return self._build_rounds

    # -- point queries ------------------------------------------------

    def _route_uncached(self, view: TableView, u: int, v: int
                        ) -> Optional[Route]:
        return view.shard_for(u).table.route(u, v)

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance u -> v (``inf`` if unreachable)."""
        return self.query_batch([Query(u, v, "distance")])[0]

    def path(self, u: int, v: int) -> Optional[Route]:
        """The full shortest route u -> v (``None`` if unreachable)."""
        return self.query_batch([Query(u, v, "path")])[0]

    # -- batched execution --------------------------------------------

    def query_batch(self, queries: Sequence[Query],
                    *, view: Optional[TableView] = None) -> List[Any]:
        """Answer a batch in input order.

        One pass over the batch checks each query's source and target
        and answers it by a row read: a distance query with a float
        (``inf`` when unreachable) from the view's ``dist`` row, a path
        query with a :class:`~repro.core.routing.Route` (``None`` when
        unreachable) from its source's route row in the store.  Only
        the sources whose row is missing are then built, one row each
        (:meth:`~repro.core.routing.RoutingTable.routes`).  The whole
        batch reads one :class:`TableView` -- epoch-consistent even if a
        refresh lands mid-batch.  A *view* that is not the current one
        bypasses the store (see the module docstring).
        """
        cache = self.cache
        n = self.graph.n
        out: List[Any] = [None] * len(queries)
        # Per source without a route row, its path queries.
        misses: Dict[int, List[int]] = {}
        with cache.lock:
            current = self._view
            if view is None:
                view = current
            cached_ok = view is current
            dist_get = view.dist.get
            rows_get = cache.batch_view().get if cached_ok else {}.get
            hits = probes = 0
            for i, q in enumerate(queries):
                u = q.u
                v = q.v
                row = dist_get(u)
                if row is None:
                    view.shard_for(u)  # not served: raises KeyError
                if not (0 <= v < n):
                    raise ValueError(
                        f"target {v} out of range for n={n}")
                if q.kind == "distance":
                    out[i] = row[v]
                    continue
                probes += 1
                routes = rows_get(u)
                if routes is None:
                    misses.setdefault(u, []).append(i)
                else:
                    hits += 1
                    out[i] = routes[v]
            if cached_ok:
                cache.count_batch(hits, probes - hits)
        fresh: List[Tuple[int, List[Optional[Route]]]] = []
        for u, idxs in misses.items():
            routes = view.shard_for(u).table.routes(u)
            for i in idxs:
                out[i] = routes[queries[i].v]
            fresh.append((u, routes))
        if cached_ok and fresh:
            with cache.lock:
                if self._view is view:
                    for u, routes in fresh:
                        cache.put(u, routes)
        if self._queries is not None:
            self._queries.inc(len(queries))
        if self._batches is not None:
            self._batches.inc()
        return out

    def serve(self, queries: Iterable[Query], *,
              batch_size: int = 256) -> List[Any]:
        """Answer a whole stream through the batched path, one
        :meth:`query_batch` per *batch_size* queries."""
        check_batch_size(batch_size)
        queries = list(queries)
        out: List[Any] = []
        for lo in range(0, len(queries), batch_size):
            out.extend(self.query_batch(queries[lo:lo + batch_size]))
        return out

    def serve_naive(self, queries: Iterable[Query]) -> List[Any]:
        """The un-batched, un-cached baseline: one full table lookup
        (shard resolution + route walk + Route construction) per query.
        The benchmark's denominator; answers are identical to
        :meth:`serve` (asserted in the E22 sweep)."""
        view = self._view
        out: List[Any] = []
        for q in queries:
            route = self._route_uncached(view, q.u, q.v)
            if q.kind == "distance":
                out.append(INF if route is None else route.distance)
            else:
                out.append(route)
        return out

    # -- incremental refresh ------------------------------------------

    def _dynamic_run(self):
        """The lazily created churn driver, bootstrapped from the
        already-materialized tables (no duplicate initial compute)."""
        if self._dyn is None:
            from ..recovery.dynamic import DynamicRun
            table = {}
            parents = {}
            for shard in self._view.shards:
                for s in shard.sources:
                    table[s] = shard.table.dist[s]
                    parents[s] = shard.table.parent[s]
            self._dyn = DynamicRun(
                self.graph, self.sources, method=self.method,
                backend=self.backend, keep_parents=True,
                initial_table=table, initial_parents=parents)
        return self._dyn

    def refresh(self, *events: Any) -> RefreshRecord:
        """Apply churn events (:class:`~repro.recovery.EdgeUpdate`,
        ``NodeLeave``, ``NodeJoin``) and swap in repaired tables.

        Only the affected sources are recomputed
        (:class:`~repro.recovery.DynamicRun`), only the shards holding
        them are rebuilt, the new :class:`TableView` is published
        atomically (in-flight queries finish on the old epoch), and
        only the affected sources' route rows are dropped.
        Concurrent refreshes run one at a time.
        """
        t0 = time.perf_counter()
        with self._refresh_lock:
            dyn = self._dynamic_run()
            record = dyn.apply(*events)
            affected = set(record.affected)
            old = self._view
            new_epoch = old.epoch + 1
            rebuilt: List[int] = []
            shards: List[TableShard] = []
            for shard in old.shards:
                if affected.intersection(shard.sources):
                    table = RoutingTable(
                        dyn.graph,
                        {s: dyn.table[s] for s in shard.sources},
                        {s: dyn.parents[s] for s in shard.sources})
                    shards.append(TableShard(shard.index, shard.sources,
                                             table, epoch=new_epoch))
                    rebuilt.append(shard.index)
                else:
                    shards.append(shard)
            self.graph = dyn.graph
            self._build_rounds += record.rounds_to_repair
            # The swap: one reference assignment publishes the new view, in
            # the same cache-lock section that drops the affected sources.
            with self.cache.lock:
                self._view = TableView(new_epoch, tuple(shards), old.shard_of)
                invalidated = self.cache.invalidate_sources(affected)
            rec = RefreshRecord(new_epoch, tuple(record.affected),
                                tuple(rebuilt), record.rounds_to_repair,
                                invalidated)
            self.refreshes.append(rec)
            if self.registry is not None:
                self.registry.counter("serve.refreshes").inc()
                self.registry.counter("serve.refresh_rounds").inc(
                    record.rounds_to_repair)
            if self._epoch_gauge is not None:
                self._epoch_gauge.set(new_epoch)
            if self._refresh_hist is not None:
                self._refresh_hist.observe(time.perf_counter() - t0)
            return rec

    # -- verification -------------------------------------------------

    def oracle_check(self, *, sample: Optional[int] = None,
                     seed: int = 0) -> List[Tuple[int, int, Any, float]]:
        """Mismatches ``(u, v, served, true)`` between the served answers
        and a fresh Dijkstra run on the current graph.

        Each pair is asked twice through the public query path: its
        ``distance()`` (a table-row read) and its ``path()`` (a
        route-row read, so a stored route that outlived its epoch
        shows).  The route must be ``None`` iff the pair is
        unreachable, and both its ``distance`` and its weight walked on
        the current graph must equal the true distance.  ``served`` is
        the first wrong value: the distance answer, else the route's
        distance (``inf`` for ``None``), else its walked weight
        (``None`` if it uses a missing arc).  ``sample`` limits the
        check to that many random pairs (seeded); default checks every
        served pair."""
        from ..graphs.reference import dijkstra
        import random as _random
        pairs: Iterable[Tuple[int, int]]
        if sample is None:
            pairs = ((u, v) for u in self.sources
                     for v in range(self.graph.n))
        else:
            rng = _random.Random(seed)
            pairs = ((rng.choice(self.sources),
                      rng.randrange(self.graph.n))
                     for _ in range(sample))
        graph = self.graph
        truth: Dict[int, List[float]] = {}
        bad = []
        for u, v in pairs:
            if u not in truth:
                truth[u] = dijkstra(graph, u)[0]
            want = truth[u][v]
            served: Any = self.distance(u, v)
            if served == want:
                route = self.path(u, v)
                served = INF if route is None else route.distance
                if route is not None and served == want:
                    served = _walked_weight(graph, route.path)
            if served != want:
                bad.append((u, v, served, want))
        return bad

    def validate_shards(self) -> List[str]:
        """Run :meth:`RoutingTable.validate` over every shard of the
        current view (the shard-swap sanity check); returns the
        collected violations."""
        violations: List[str] = []
        for shard in self._view.shards:
            for msg in shard.table.validate(raise_on_violation=False):
                violations.append(f"shard {shard.index}: {msg}")
        return violations

    def digest(self) -> str:
        """SHA-256 over the served tables, epoch, and refresh history
        -- bit-identical across backends for identical builds."""
        view = self._view
        payload = {
            "epoch": view.epoch,
            "sources": list(self.sources),
            "shards": [
                {"index": s.index, "epoch": s.epoch,
                 "sources": list(s.sources),
                 "dist": {str(x): [repr(float(d))
                                   for d in s.table.dist[x]]
                          for x in s.sources},
                 "parent": {str(x): [-1 if p is None else p
                                     for p in s.table.parent[x]]
                            for x in s.sources}}
                for s in view.shards],
            "refreshes": [
                {"epoch": r.epoch, "affected": list(r.affected_sources),
                 "rebuilt": list(r.rebuilt_shards),
                 "rounds": r.rounds_to_repair}
                for r in self.refreshes],
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["DistanceOracle", "RefreshRecord", "TableShard", "TableView"]
