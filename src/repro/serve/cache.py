"""Counters of the serving layer's route rows.

Theorem I.1 leaves every node, per source, the exact distance and the
last edge of a shortest path, so one pass over a source's parent row
yields every route from it.  Each epoch's
:class:`~repro.serve.TableView` keeps that pass's result: one *route
row* per source, a list of ``n`` answers indexed by target -- a
:class:`~repro.core.routing.Route`, or ``None`` where the target is
unreachable -- built by the first path query from the source and
carried into each later epoch.  A path answer is then one read of
``row[v]``.

:class:`RouteCache` holds no rows; it counts what the views' rows do.
Distance queries never touch route rows:
:meth:`repro.serve.DistanceOracle.query_batch` answers them with one
read of the epoch's distance row, so the hit/miss counters count path
probes only (a hit when the query's source had a row when its batch
read the view).  Invalidations count the routes a refresh replaced:
only the affected sources' table rows are recomputed, and their route
rows are patched into the new view (see
:meth:`repro.serve.DistanceOracle.refresh`), so an invalidation is an
entry of such a row that is a new object, or changed to or from
``None``.  The counters are mirrored into an
:class:`repro.obs.MetricsRegistry` when one is attached
(``serve.cache_hits`` etc.), the same registry the simulator publishes
round metrics into, so one dashboard snapshot covers both the build
and the serve side.

Thread safety: batches on several threads count at once, so every
update takes the counters' own lock; the counts stay exact.
"""

from __future__ import annotations

import threading
from typing import Any, Dict


class RouteCache:
    """Hit/miss/invalidation counters of the oracle's route rows."""

    def __init__(self, *, registry: Any = None) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._counters = None
        if registry is not None:
            self._counters = {
                "hits": registry.counter("serve.cache_hits"),
                "misses": registry.counter("serve.cache_misses"),
                "invalidations": registry.counter(
                    "serve.cache_invalidations"),
            }

    def count_batch(self, hits: int, misses: int) -> None:
        """Add one batch's path probes: *hits* found their source's
        route row, *misses* did not."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            if self._counters is not None:
                if hits:
                    self._counters["hits"].inc(hits)
                if misses:
                    self._counters["misses"].inc(misses)

    def count_invalidations(self, n: int) -> None:
        """Add *n* routes a refresh replaced."""
        with self._lock:
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
                "hit_rate": self.hit_rate}


__all__ = ["RouteCache"]
