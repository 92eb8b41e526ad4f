"""Distance-oracle serving layer: production queries over APSP tables.

The pipelined algorithms' outputs -- full distance + next-hop tables --
are exactly what a production distance oracle serves.  This package
closes that loop:

* :class:`DistanceOracle` (:mod:`repro.serve.oracle`) materializes
  one :class:`~repro.core.RoutingTable` per epoch by running the
  k-source pipeline (either simulator backend), answers ``distance``
  point queries with a table-row read and ``path`` point queries with
  a read of the source's route row, in batches, and refreshes
  incrementally under churn via :class:`repro.recovery.DynamicRun`
  with epoch-versioned atomic table swaps;
* :class:`AsyncFrontend` (:mod:`repro.serve.frontend`) puts an asyncio
  + thread-pool query front-end over it, micro-batching concurrent
  point queries and running a stream as one pool job;
* :class:`RouteCache` (:mod:`repro.serve.cache`) counts route-row
  hits, misses and invalidations, mirrored into the
  :class:`repro.obs.MetricsRegistry`;
* :func:`generate_workload` (:mod:`repro.serve.workload`) produces the
  seeded Zipf-skewed query streams the benchmarks (E22,
  ``benchmarks/bench_serving.py``) and the ``repro serve`` CLI replay.

See docs/SERVING.md for the architecture, epoch/refresh semantics, and
the route rows.
"""

from .cache import RouteCache
from .frontend import AsyncFrontend, serve_stream
from .oracle import DistanceOracle, RefreshRecord, TableView
from .workload import Query, Workload, generate_workload

__all__ = [
    "AsyncFrontend",
    "DistanceOracle",
    "Query",
    "RefreshRecord",
    "RouteCache",
    "TableView",
    "Workload",
    "generate_workload",
    "serve_stream",
]
