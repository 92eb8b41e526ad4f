"""The serving layer's store of route rows.

Theorem I.1 leaves every node, per source, the exact distance and the
last edge of a shortest path, so one pass over a source's parent row
yields every route from it.  The store keeps that pass's result: one
*route row* per source, a list of ``n`` answers indexed by target --
a :class:`~repro.core.routing.Route`, or ``None`` where the target is
unreachable.  A path answer is then one read of ``row[v]``.

There is no capacity and no eviction: the store holds at most one row
per served source, at most ``k * n`` routes -- the shape of the
distance and parent tables every view already holds.  Distance
queries never touch it: :meth:`repro.serve.DistanceOracle.query_batch`
answers them with one read of the epoch's ``dist`` row, so the
hit/miss counters count path probes only (a hit when the query's
source has a row).  Hit/miss/invalidation counters are mirrored into
an :class:`repro.obs.MetricsRegistry` when one is attached
(``serve.cache_hits`` etc.), the same registry the simulator publishes
round metrics into, so one dashboard snapshot covers both the build
and the serve side.

Invalidation is *per source*: a refresh epoch recomputes only the
affected sources' table rows (see
:meth:`repro.serve.DistanceOracle.refresh`), so only those sources'
route rows can be stale -- rows of unaffected sources survive the
swap.  ``tests/test_serve_churn.py`` property-checks that no stale
route ever survives a refresh.

Thread safety: the methods take no lock themselves.  A store shared
between threads is guarded by its one :attr:`RouteCache.lock`, held
around every compound probe, write-back and invalidation --
:class:`~repro.serve.DistanceOracle` does exactly that.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List

_MISSING = object()


class RouteCache:
    """A map ``source -> route row`` with hit/miss counters."""

    def __init__(self, *, registry: Any = None,
                 prefix: str = "serve") -> None:
        self._rows: Dict[int, List[Any]] = {}
        #: Guards ``_rows`` and the counters for threaded callers (see
        #: the module docstring).
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._counters = None
        if registry is not None:
            self._counters = {
                "hits": registry.counter(f"{prefix}.cache_hits"),
                "misses": registry.counter(f"{prefix}.cache_misses"),
                "invalidations": registry.counter(
                    f"{prefix}.cache_invalidations"),
            }

    def __len__(self) -> int:
        """The number of rows held."""
        return len(self._rows)

    def get(self, source: int, default: Any = None) -> Any:
        """The source's route row, counting the hit/miss; ``default``
        when the source has none."""
        found = self._rows.get(source, _MISSING)
        if found is _MISSING:
            self.count_batch(0, 1)
            return default
        self.count_batch(1, 0)
        return found

    def put(self, source: int, row: List[Any]) -> None:
        """Store the source's route row (replacing any it had)."""
        self._rows[source] = row

    def batch_view(self) -> Dict[int, List[Any]]:
        """The raw ``source -> row`` map, for the batched hot path.

        :meth:`DistanceOracle.query_batch` probes thousands of queries
        per call; going through :meth:`get` costs a Python method call
        per probe.  The contract for callers: never mutate a row or
        the map (insert through :meth:`put`), and report totals once
        through :meth:`count_batch`.
        """
        return self._rows

    def count_batch(self, hits: int, misses: int) -> None:
        """Bulk hit/miss accounting for a :meth:`batch_view` pass."""
        self.hits += hits
        self.misses += misses
        if self._counters is not None:
            if hits:
                self._counters["hits"].inc(hits)
            if misses:
                self._counters["misses"].inc(misses)

    def invalidate_sources(self, sources: Iterable[int]) -> int:
        """Drop the rows of the listed sources; returns how many rows
        were dropped.

        This is the refresh-epoch hook: rows of unaffected sources stay
        across the table swap.
        """
        stale = [s for s in set(sources) if s in self._rows]
        for s in stale:
            del self._rows[s]
        self._count_invalidations(len(stale))
        return len(stale)

    def clear(self) -> int:
        """Drop every row; returns how many were dropped."""
        n = len(self._rows)
        self._rows.clear()
        self._count_invalidations(n)
        return n

    def _count_invalidations(self, n: int) -> None:
        self.invalidations += n
        if self._counters is not None and n:
            self._counters["invalidations"].inc(n)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._rows), "hit_rate": self.hit_rate}


__all__ = ["RouteCache"]
