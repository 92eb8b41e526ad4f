"""The distance oracle: pipelined APSP tables behind a query surface.

:class:`DistanceOracle` is the product the paper's algorithms exist
for.  It materializes full distance + next-hop tables with **one**
k-source pipeline over every served source (the initial compute of its
:class:`~repro.recovery.DynamicRun`), wraps them in one
:class:`~repro.core.RoutingTable` per epoch, and answers
``distance(u, v)`` / ``path(u, v)`` point queries out of it.  A
distance answer is one read of the epoch's ``dist[u][v]`` (the exact
distance Theorem I.1 leaves at every node), and a path answer one read
of its source's *route row*: every route from that source, built in
one pass over its parent row the first time the epoch is asked for
one.

Epoch-versioned tables
----------------------
An epoch is one :class:`TableView`: its table and the route rows built
from that table.  A query batch captures the current view once and
reads and fills only it, so a concurrent
:meth:`DistanceOracle.refresh` -- which publishes a whole new view --
can never show a query a half-swapped table, and a batch still running
on a superseded view can only store rows built from that view's own
table.  In-flight queries simply finish against the epoch they started
on.  Reads take no lock; refreshes are serialized by their own lock.

Incremental refresh
-------------------
Edge/node churn goes through the oracle's
:class:`~repro.recovery.DynamicRun`: only the sources the update can
affect are recomputed by the k-source pipeline, the run's rows are
wrapped in the next epoch's table, and the next view starts with the
old view's route rows minus the affected sources' -- rows of
unaffected sources carry over, still exact.
``tests/test_serve_churn.py`` property-checks the end-to-end guarantee
against the Dijkstra oracle.

Batched execution
-----------------
:meth:`DistanceOracle.query_batch` makes one pass over the batch: a
distance query is one lookup of its source's distance row, a path
query one lookup of its source's route row in the view.  Only the
sources without a row are grouped, and each gets its row built once.
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
from ..recovery.dynamic import DynamicRun
from .cache import RouteCache
from .workload import Query, check_batch_size


@dataclass(frozen=True)
class TableView:
    """One epoch of the served table.

    ``table`` holds every served source's distance and parent rows and
    is never mutated after the view is published.  ``routes`` maps a
    source to its route row, built from ``table`` by the view's first
    path query from that source.  A refresh publishes a whole new view;
    readers that captured the old one keep a complete, consistent table
    for the duration of their query.
    """

    epoch: int
    table: RoutingTable
    routes: Dict[int, List[Optional[Route]]] = field(
        default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class RefreshRecord:
    """What one :meth:`DistanceOracle.refresh` did."""

    epoch: int
    affected_sources: Tuple[int, ...]
    rounds_to_repair: int
    #: Route rows not carried into the new view (one per affected
    #: source that had one).
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
                 method: str = "auto",
                 backend: Optional[str] = None,
                 registry: Any = None) -> None:
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

        # The build is the run's initial compute: one k_ssp over every
        # served source.  Theorem I.1(iii)'s ``2 sqrt(Delta k n) + n + k``
        # rounds grow less than linearly in k, so splitting the sources
        # over several runs would pay several times the rounds.
        self._dyn = DynamicRun(graph, sources, method=method,
                               backend=backend)
        self.sources: Tuple[int, ...] = self._dyn.sources
        if not self.sources:
            raise ValueError("need at least one source to serve")
        self.graph = graph
        self.refreshes: List[RefreshRecord] = []
        self._view = TableView(0, self._table())
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(self._view.epoch)

    def _table(self) -> RoutingTable:
        """The run's current rows as one table.  The table shares the
        run's row lists in dicts of its own: ``apply`` replaces a
        repaired source's rows in the run's dicts and never writes a
        row, so a published view keeps its epoch's rows."""
        dyn = self._dyn
        return RoutingTable(dyn.graph, dyn.table, dyn.parents)

    @property
    def epoch(self) -> int:
        return self._view.epoch

    @property
    def view(self) -> TableView:
        """The current table snapshot (capture once per query batch for
        epoch-consistent reads)."""
        return self._view

    @property
    def build_rounds(self) -> int:
        """Total CONGEST rounds spent materializing tables so far
        (initial build + every refresh): the run's merged metrics."""
        return self._dyn.metrics.rounds

    # -- point queries ------------------------------------------------

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
        (``inf`` when unreachable) from its source's distance row, a
        path query with a :class:`~repro.core.routing.Route` (``None``
        when unreachable) from its source's route row.  Only the
        sources whose route row is missing are then built, one row each
        (:meth:`~repro.core.routing.RoutingTable.routes`), and stored in
        the view.  The whole batch reads and fills one
        :class:`TableView` (*view*, default the current one) --
        epoch-consistent even if a refresh lands mid-batch.
        """
        if view is None:
            view = self._view
        table = view.table
        n = table.graph.n
        dist_get = table.dist.get
        routes = view.routes
        routes_get = routes.get
        out: List[Any] = [None] * len(queries)
        # Per source without a route row, its path queries.
        misses: Dict[int, List[int]] = {}
        hits = probes = 0
        for i, q in enumerate(queries):
            u = q.u
            v = q.v
            dist_row = dist_get(u)
            if dist_row is None:
                raise KeyError(f"{u} is not a served source")
            if not (0 <= v < n):
                raise ValueError(
                    f"target {v} out of range for n={n}")
            if q.kind == "distance":
                out[i] = dist_row[v]
                continue
            probes += 1
            route_row = routes_get(u)
            if route_row is None:
                misses.setdefault(u, []).append(i)
            else:
                hits += 1
                out[i] = route_row[v]
        self.cache.count_batch(hits, probes - hits)
        for u, idxs in misses.items():
            route_row = table.routes(u)
            for i in idxs:
                out[i] = route_row[queries[i].v]
            routes[u] = route_row
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
        """The un-batched, un-stored baseline: one full table lookup
        (route walk + Route construction) per query.  The benchmark's
        denominator; answers are identical to :meth:`serve` (asserted
        in the E22 sweep)."""
        table = self._view.table
        out: List[Any] = []
        for q in queries:
            route = table.route(q.u, q.v)
            if q.kind == "distance":
                out.append(INF if route is None else route.distance)
            else:
                out.append(route)
        return out

    # -- incremental refresh ------------------------------------------

    def refresh(self, *events: Any) -> RefreshRecord:
        """Apply churn events (:class:`~repro.recovery.EdgeUpdate`,
        ``NodeLeave``, ``NodeJoin``) and publish the repaired table.

        Only the affected sources are recomputed
        (:class:`~repro.recovery.DynamicRun`), the new
        :class:`TableView` is published atomically (in-flight queries
        finish on the old epoch), and it starts with the old view's
        route rows of the unaffected sources.  Concurrent refreshes run
        one at a time.
        """
        t0 = time.perf_counter()
        with self._refresh_lock:
            record = self._dyn.apply(*events)
            old = self._view
            # One step under the GIL, so a batch still filling the old
            # view cannot tear the copy; rows it adds later stay there.
            routes = old.routes.copy()
            invalidated = 0
            for s in record.affected:
                if routes.pop(s, None) is not None:
                    invalidated += 1
            self.cache.count_invalidations(invalidated)
            new_epoch = old.epoch + 1
            self.graph = self._dyn.graph
            # The swap: one reference assignment publishes the new view.
            self._view = TableView(new_epoch, self._table(), routes)
            rec = RefreshRecord(new_epoch, tuple(record.affected),
                                record.rounds_to_repair, invalidated)
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

    def validate(self) -> List[str]:
        """Run :meth:`RoutingTable.validate` over the current view's
        table; returns the collected violations."""
        return self._view.table.validate(raise_on_violation=False)

    def digest(self) -> str:
        """SHA-256 over the served tables, epoch, and refresh history
        -- bit-identical across backends for identical builds."""
        view = self._view
        table = view.table
        payload = {
            "epoch": view.epoch,
            "sources": list(self.sources),
            "dist": {str(x): [repr(float(d)) for d in table.dist[x]]
                     for x in self.sources},
            "parent": {str(x): [-1 if p is None else p
                                for p in table.parent[x]]
                       for x in self.sources},
            "refreshes": [
                {"epoch": r.epoch, "affected": list(r.affected_sources),
                 "rounds": r.rounds_to_repair}
                for r in self.refreshes],
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["DistanceOracle", "RefreshRecord", "TableView"]
