"""The serving layer's LRU cache of path routes.

One entry per ``(source, target)`` pair a ``path`` query asked for,
holding the materialized :class:`~repro.core.routing.Route`, or
``None`` for an unreachable pair -- negative answers are cached too,
they cost the same table walk to recompute.  Distance queries never
touch the cache: :meth:`repro.serve.DistanceOracle.query_batch` answers
them with one read of the epoch's ``dist`` row, so the hit/miss
counters count path probes only.  Hit/miss/eviction/invalidation
counters are mirrored into an :class:`repro.obs.MetricsRegistry` when
one is attached (``serve.cache_hits`` etc.), the same registry the
simulator publishes round metrics into, so one dashboard snapshot
covers both the build and the serve side.

Invalidation is *per source*: a refresh epoch recomputes only the
affected sources' table rows (see
:meth:`repro.serve.DistanceOracle.refresh`), so only those sources'
cached routes can be stale -- entries for unaffected sources survive
the swap.  ``tests/test_serve_churn.py`` property-checks that no stale
entry ever survives a refresh.

Thread safety: the methods take no lock themselves.  A cache shared
between threads is guarded by its one :attr:`RouteCache.lock`, held
around every compound probe, write-back and invalidation --
:class:`~repro.serve.DistanceOracle` does exactly that.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Tuple

_MISSING = object()


class RouteCache:
    """A bounded LRU map ``(source, target) -> route`` with counters.

    ``capacity <= 0`` disables caching entirely (every get is a miss,
    puts are dropped) -- the configuration the naive serving baseline
    benchmarks against.
    """

    def __init__(self, capacity: int, *, registry: Any = None,
                 prefix: str = "serve") -> None:
        self.capacity = capacity
        self._data: "OrderedDict[Tuple[int, int], Any]" = OrderedDict()
        #: Guards ``_data`` and the counters for threaded callers (see
        #: the module docstring).
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._counters = None
        if registry is not None:
            self._counters = {
                "hits": registry.counter(f"{prefix}.cache_hits"),
                "misses": registry.counter(f"{prefix}.cache_misses"),
                "evictions": registry.counter(f"{prefix}.cache_evictions"),
                "invalidations": registry.counter(
                    f"{prefix}.cache_invalidations"),
            }

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple[int, int], default: Any = None) -> Any:
        """The cached answer, counting the hit/miss; ``default`` on miss
        (distinguish a cached-``None`` unreachable answer from a miss by
        passing a sentinel default)."""
        found = self._data.get(key, _MISSING)
        if found is _MISSING:
            self.misses += 1
            if self._counters is not None:
                self._counters["misses"].inc()
            return default
        self._data.move_to_end(key)
        self.hits += 1
        if self._counters is not None:
            self._counters["hits"].inc()
        return found

    def put(self, key: Tuple[int, int], value: Any) -> None:
        if self.capacity <= 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1
            if self._counters is not None:
                self._counters["evictions"].inc()

    def batch_view(self) -> "OrderedDict[Tuple[int, int], Any]":
        """The raw LRU map, for the batched hot path.

        :meth:`DistanceOracle.query_batch` probes thousands of keys per
        call; going through :meth:`get` costs a Python method call per
        probe, which dominates the warm-cache serving profile.  The
        contract for callers: ``move_to_end(key)`` after every hit (LRU
        recency), insert only through :meth:`put` (eviction), and report
        totals once through :meth:`count_batch`.
        """
        return self._data

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
        """Drop every entry whose *source* is listed; returns the count.

        This is the refresh-epoch hook: answers for unaffected sources
        stay cached across the table swap.
        """
        drop = set(sources)
        if not drop:
            return 0
        stale = [k for k in self._data if k[0] in drop]
        for k in stale:
            del self._data[k]
        self.invalidations += len(stale)
        if self._counters is not None and stale:
            self._counters["invalidations"].inc(len(stale))
        return len(stale)

    def clear(self) -> int:
        n = len(self._data)
        self._data.clear()
        self.invalidations += n
        if self._counters is not None and n:
            self._counters["invalidations"].inc(n)
        return n

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._data), "hit_rate": self.hit_rate}


__all__ = ["RouteCache"]
