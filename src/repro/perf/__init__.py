"""Performance layer: fast simulator backend + parallel sweep executor.

Two independent speedups with one shared rule -- *never trade
correctness for wall-clock silently*:

* :class:`FastNetwork` (selected via ``backend="fast"``, ambiently via
  :func:`set_default_backend` / ``REPRO_BACKEND=fast``) replaces the
  reference simulator's per-round whole-network scans with an
  event-driven active-node worklist; it honors the full hook surface
  (fault injection, monitoring, tracing, metrics, event recording) and
  is differentially pinned to produce bit-identical outputs,
  :class:`~repro.congest.metrics.RunMetrics`, fault statistics, trace
  streams, and post-mortems (``tests/differential.py``).
* :class:`ColumnarNetwork` (``backend="columnar"`` /
  ``REPRO_BACKEND=columnar``) goes one step further for the relaxation
  family and the pipelined (h, k)-SSP of Algorithm 1: flat numpy
  columns and whole-round bulk array operations instead of
  per-message Python objects; every other program -- and every hooked
  run -- executes on the inherited event-driven loop.
  Pinned by ``tests/backend_conformance.py``, which parametrizes the
  differential suite over the :data:`BACKENDS` registry.
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
    set_default_backend,
    use_backend,
)
from .columnar import ColumnarNetwork
from .fast_network import FastNetwork
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
    "FastNetwork",
    "SweepExecutor",
    "SweepSpec",
    "SweepTask",
    "SweepWorkerError",
    "experiment_tasks",
    "get_default_backend",
    "make_network",
    "merge_reports",
    "run_experiment",
    "set_default_backend",
    "use_backend",
]
