"""Parallel execution of parameter sweeps across processes.

Every experiment sweep in :mod:`repro.analysis` is deterministic given
its keyword arguments, and almost all of them iterate **seed-major**:
the outermost loop is ``for seed in seeds``, and no row depends on any
other seed's rows.  That makes the seed the natural unit of parallelism:
run each seed's slice of the sweep as its own task, then concatenate the
resulting report rows *in task order* -- the merged report is equal,
row for row, to the sequential run, so downstream consumers
(:class:`~repro.obs.store.BenchStore` records, EXPERIMENTS.md tables,
bound assertions) cannot tell the difference.  ``tests/
test_sweep_executor.py`` pins this bit-for-bit on the persisted
``BENCH_*.json`` bytes.

Sweeps that are *not* seed-separable are registered with
``seed_splittable=False`` and always run as a single task:

* E6 emits a seed-independent Figure 1 row before its seed loop
  (splitting would duplicate it);
* E10 has no ``seeds`` parameter at all;
* E15 makes two sequential passes over ``seeds`` (splitting would
  interleave the passes and permute the rows).

Workers are plain ``multiprocessing`` processes (fork start method when
the platform offers it: no re-import cost, inherited ambient backend).
A task that raises in a worker is reported -- traceback text and all --
as a :class:`SweepWorkerError` in the parent; a worker that dies outright
(segfault, OOM-kill) surfaces the same way via the broken-pool error.
``jobs=1`` bypasses process machinery entirely and runs the tasks
inline, which is both the degenerate case the tests pin and the fallback
wherever ``multiprocessing`` is unavailable.
"""

from __future__ import annotations

import inspect
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .backends import _validated as _validated_backend, use_backend

if TYPE_CHECKING:  # runtime import is lazy: repro.analysis pulls in
    from ..analysis.records import ExperimentReport  # repro.core, which
    # imports this package for make_network -- a cycle at import time.


class SweepWorkerError(RuntimeError):
    """A sweep task failed in a worker process.

    Carries the worker-side traceback text (when the task raised) so the
    failure is debuggable from the parent; a worker that died without
    reporting (killed, crashed interpreter) yields the generic
    broken-pool message instead.
    """


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work, picklable for process transport.

    ``func`` is a ``"module.path:function"`` reference (resolved in the
    worker -- functions themselves do not pickle portably), ``kwargs``
    its keyword arguments, ``backend`` an optional simulator backend to
    make ambient while the task runs.

    ``backend`` is validated at construction against the
    :data:`~repro.perf.backends.BACKENDS` registry (same error text as
    an explicit ``make_network(backend=...)`` request): an unknown -- or
    empty-string -- backend must fail here, loudly, rather than slip
    through an ``or``-default later and silently run on whatever the
    executor's default happens to be.
    """

    func: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None

    def __post_init__(self):
        if self.backend is not None:
            _validated_backend(self.backend)

    def resolve(self):
        mod_name, _, fn_name = self.func.partition(":")
        if not fn_name:
            raise ValueError(
                f"SweepTask.func must be 'module.path:function', got "
                f"{self.func!r}")
        import importlib
        return getattr(importlib.import_module(mod_name), fn_name)


def _run_task(task: SweepTask) -> List[ExperimentReport]:
    fn = task.resolve()
    if task.backend is not None:
        with use_backend(task.backend):
            out = fn(**task.kwargs)
    else:
        out = fn(**task.kwargs)
    return list(out) if isinstance(out, tuple) else [out]


def _worker(task: SweepTask) -> Tuple[str, Any]:
    """Top-level so it pickles under the spawn start method too.

    Exceptions are returned as formatted text, not raised: a raised
    exception would have to pickle across the process boundary, and many
    (those with non-trivial constructor arguments) do not.
    """
    try:
        return ("ok", _run_task(task))
    except Exception:
        return ("error", traceback.format_exc())


def merge_reports(per_task: Sequence[Sequence[ExperimentReport]]
                  ) -> List[ExperimentReport]:
    """Concatenate per-task reports into per-experiment reports.

    Reports are grouped by experiment id in first-seen order and their
    rows concatenated in task order.  For seed-split tasks of a
    seed-major sweep this reproduces the sequential row order exactly.

    Two tasks reporting the same experiment id with *different*
    descriptions is a merge of unrelated sweeps (or of two versions of
    one sweep): silently keeping the first-seen description would file
    the second task's rows under the wrong header, so it raises instead.
    """
    from ..analysis.records import ExperimentReport

    merged: Dict[str, ExperimentReport] = {}
    for reports in per_task:
        for rep in reports:
            into = merged.get(rep.experiment)
            if into is None:
                merged[rep.experiment] = ExperimentReport(
                    rep.experiment, rep.description, list(rep.rows))
            elif into.description != rep.description:
                raise ValueError(
                    f"cannot merge reports for experiment "
                    f"{rep.experiment!r}: conflicting descriptions "
                    f"{into.description!r} vs {rep.description!r} -- the "
                    f"tasks are not slices of the same sweep")
            else:
                into.rows.extend(rep.rows)
    return list(merged.values())


class SweepExecutor:
    """Fan sweep tasks out across worker processes, deterministically.

    Results are collected **in task order** regardless of completion
    order, so the merged output is independent of scheduling.  Each task
    carries its own seeds in ``kwargs``; nothing is derived from worker
    identity, wall clock, or interleaving.
    """

    def __init__(self, jobs: int = 1, *, backend: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend is not None:
            _validated_backend(backend)
        self.jobs = jobs
        self.backend = backend

    def _with_backend(self, tasks: Sequence[SweepTask]) -> List[SweepTask]:
        if self.backend is None:
            return list(tasks)
        return [SweepTask(t.func, t.kwargs, t.backend or self.backend)
                for t in tasks]

    def run_tasks(self, tasks: Sequence[SweepTask]
                  ) -> List[List[ExperimentReport]]:
        """Execute tasks, returning each task's report list, task-ordered.

        Raises :class:`SweepWorkerError` if any task failed; the error
        message includes the worker-side traceback.
        """
        tasks = self._with_backend(tasks)
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return [_run_task(t) for t in tasks]
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: spawn re-imports
            ctx = multiprocessing.get_context()
        results: List[List[ExperimentReport]] = []
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks)),
                                 mp_context=ctx) as pool:
            futures = [pool.submit(_worker, t) for t in tasks]
            try:
                for task, fut in zip(tasks, futures):
                    try:
                        status, payload = fut.result()
                    except BrokenProcessPool as exc:
                        raise SweepWorkerError(
                            f"sweep worker died without reporting while "
                            f"running {task.func} {task.kwargs!r}: {exc} "
                            f"(killed process or crashed interpreter; re-run "
                            f"with jobs=1 to debug inline)") from exc
                    if status == "error":
                        raise SweepWorkerError(
                            f"sweep task {task.func} {task.kwargs!r} failed "
                            f"in worker:\n{payload}")
                    results.append(payload)
            except BaseException:
                # First failure aborts the whole run: cancel every
                # not-yet-started future so the pool's context exit only
                # waits for tasks already executing, not for the entire
                # submitted backlog (a failed 100-task campaign must
                # abort promptly, not after 99 more sweeps).
                for fut in futures:
                    fut.cancel()
                raise
        return results

    def run(self, tasks: Sequence[SweepTask]) -> List[ExperimentReport]:
        """Execute tasks and merge their reports (see :func:`merge_reports`)."""
        return merge_reports(self.run_tasks(tasks))


# ---------------------------------------------------------------------------
# Experiment registry: how each sweep parallelizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """How one experiment id maps onto sweep tasks."""

    func: str
    #: True iff the sweep's outermost loop is ``for seed in seeds`` with
    #: seed-independent rows, so per-seed tasks concatenate to the exact
    #: sequential report.  See the module docstring for the exceptions.
    seed_splittable: bool = True

    def default_seeds(self) -> Optional[Tuple[int, ...]]:
        fn = SweepTask(self.func).resolve()
        param = inspect.signature(fn).parameters.get("seeds")
        if param is None or param.default is inspect.Parameter.empty:
            return None
        return tuple(param.default)


#: Experiment id -> sweep function + parallelization contract: the one
#: experiment registry.  ``repro bench``, campaign specs, the CI gates
#: (benchmarks/gates.py) and the tests all resolve experiment ids here.
EXPERIMENT_SWEEPS: Dict[str, SweepSpec] = {
    "E1": SweepSpec("repro.analysis.sweep:sweep_theorem11_hk_ssp"),
    "E2": SweepSpec("repro.analysis.sweep:sweep_theorem11_apsp"),
    "E3": SweepSpec("repro.analysis.sweep:sweep_theorem11_kssp"),
    "E4": SweepSpec("repro.analysis.sweep:sweep_invariants"),
    "E5": SweepSpec("repro.analysis.sweep:sweep_short_range"),
    # E6's Figure 1 row precedes the seed loop: splitting by seed would
    # emit it once per task.
    "E6": SweepSpec("repro.analysis.experiments:sweep_csssp",
                    seed_splittable=False),
    "E7": SweepSpec("repro.analysis.experiments:sweep_blocker"),
    "E8": SweepSpec("repro.analysis.experiments:sweep_theorem12"),
    "E9": SweepSpec("repro.analysis.experiments:sweep_theorem13"),
    # E10 sweeps weights on one fixed workload; no seeds parameter.
    "E10": SweepSpec(
        "repro.analysis.experiments:sweep_corollary14_crossover",
        seed_splittable=False),
    "E11": SweepSpec("repro.analysis.sweep:sweep_table1_exact"),
    "E12": SweepSpec("repro.analysis.experiments:sweep_table1_approx"),
    "E13": SweepSpec("repro.analysis.experiments:sweep_unweighted_baseline"),
    "E14": SweepSpec(
        "repro.analysis.experiments:sweep_ablation_key_schedule"),
    # E15 makes two sequential passes over seeds; per-seed tasks would
    # interleave the passes and permute the row order.
    "E15": SweepSpec("repro.analysis.experiments:sweep_extension_scaling",
                     seed_splittable=False),
    "E16": SweepSpec(
        "repro.analysis.experiments:sweep_random_vs_deterministic"),
    "E17": SweepSpec(
        "repro.analysis.experiments:sweep_ksource_short_range"),
    "E18": SweepSpec("repro.analysis.sweep:sweep_fault_tolerance"),
    "E19": SweepSpec("repro.analysis.sweep:sweep_backend_speedup",
                     seed_splittable=False),  # wall-clock timing: one task
    "E21": SweepSpec("repro.analysis.sweep:sweep_recovery"),
    "E22": SweepSpec("repro.analysis.sweep:sweep_serving",
                     seed_splittable=False),  # wall-clock timing: one task
    "E23": SweepSpec("repro.analysis.sweep:sweep_columnar",
                     seed_splittable=False),  # wall-clock timing: one task
    "E24": SweepSpec("repro.analysis.sweep:sweep_columnar_pipelined",
                     seed_splittable=False),  # wall-clock timing: one task
}


def experiment_tasks(experiment: str, *, jobs: int = 1,
                     **kwargs: Any) -> List[SweepTask]:
    """Build the task list for one experiment id.

    With ``jobs > 1`` and a seed-splittable sweep this is one task per
    seed (seeds from ``kwargs`` or the sweep's signature default);
    otherwise a single task running the whole sweep.
    """
    spec = EXPERIMENT_SWEEPS.get(experiment)
    if spec is None:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: "
            f"{', '.join(sorted(EXPERIMENT_SWEEPS, key=lambda k: int(k[1:])))}")
    if jobs > 1 and spec.seed_splittable:
        seeds = kwargs.pop("seeds", None)
        if seeds is None:
            seeds = spec.default_seeds()
        if seeds is not None:
            seeds = tuple(seeds)
            if len(seeds) > 1:
                return [SweepTask(spec.func, {**kwargs, "seeds": (s,)})
                        for s in seeds]
            kwargs["seeds"] = seeds
    return [SweepTask(spec.func, dict(kwargs))]


def run_experiment(experiment: str, *, jobs: int = 1,
                   backend: Optional[str] = None,
                   **kwargs: Any) -> List[ExperimentReport]:
    """Run one experiment sweep, optionally parallel, optionally on a
    non-default simulator backend.  Returns its merged report list
    (most experiments produce one report; E5/E7/E13/E17 produce two)."""
    tasks = experiment_tasks(experiment, jobs=jobs, **kwargs)
    return SweepExecutor(jobs, backend=backend).run(tasks)


__all__ = [
    "EXPERIMENT_SWEEPS", "SweepExecutor", "SweepSpec", "SweepTask",
    "SweepWorkerError", "experiment_tasks", "merge_reports",
    "run_experiment",
]
