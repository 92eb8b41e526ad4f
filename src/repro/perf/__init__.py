"""Performance layer: the production simulator engine + parallel sweep
executor.

Two independent speedups with one shared rule -- *never trade
correctness for wall-clock silently*:

* :class:`ColumnarNetwork` (``backend="columnar"``, the default) runs
  the relaxation family and the pipelined (h, k)-SSP of Algorithm 1 as
  flat numpy columns and whole-round bulk array operations instead of
  per-message Python objects; every other program -- and every hooked
  run -- executes on its event-driven per-message loop, which replaces
  the reference simulator's per-round whole-network scans with an
  active-node worklist and honors the full hook surface (fault
  injection, monitoring, tracing, metrics, event recording).  Pinned
  bit-identical to the reference -- outputs,
  :class:`~repro.congest.metrics.RunMetrics`, fault statistics, trace
  streams, post-mortems -- by ``tests/backend_conformance.py``, which
  parametrizes the differential suite over the :data:`BACKENDS`
  registry.
* :class:`SweepExecutor` fans seed-major parameter sweeps across
  ``multiprocessing`` workers and merges the rows back in task order,
  reproducing the sequential reports exactly
  (``tests/test_sweep_executor.py`` pins the persisted bytes).

See docs/PERFORMANCE.md for the contract and the measured speedups.
"""

from .backends import (
    BACKENDS,
    get_default_backend,
    make_network,
    use_backend,
)
from .columnar import ColumnarNetwork
from .sweep_executor import (
    EXPERIMENT_SWEEPS,
    SweepExecutor,
    SweepSpec,
    SweepTask,
    SweepWorkerError,
    experiment_tasks,
    merge_reports,
    run_experiment,
)

__all__ = [
    "BACKENDS",
    "ColumnarNetwork",
    "EXPERIMENT_SWEEPS",
    "SweepExecutor",
    "SweepSpec",
    "SweepTask",
    "SweepWorkerError",
    "experiment_tasks",
    "get_default_backend",
    "make_network",
    "merge_reports",
    "run_experiment",
    "use_backend",
]
