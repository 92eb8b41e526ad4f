"""The parallel sweep executor is an invisible optimisation: fanned-out
sweeps must reproduce the sequential results bit for bit, and worker
failures must surface as debuggable errors, never as silent gaps."""

import pytest

from repro.analysis import sweep as sweep_mod
from repro.obs import BenchStore
from repro.perf import (
    EXPERIMENT_SWEEPS,
    SweepExecutor,
    SweepTask,
    SweepWorkerError,
    experiment_tasks,
    merge_reports,
    run_experiment,
)


def rows_as_tuples(report):
    return [(m.experiment, m.params, m.measured, m.bound, m.extra)
            for m in report.rows]


class TestDeterministicParallelism:
    def test_parallel_equals_sequential_rows(self):
        """E2 split one-task-per-seed across 4 workers: merged rows are
        exactly the sequential sweep's rows, in the sequential order."""
        seq = sweep_mod.sweep_theorem11_apsp(seeds=(0, 1, 2), sizes=(8, 12))
        (par,) = run_experiment("E2", jobs=4, seeds=(0, 1, 2), sizes=(8, 12))
        assert par.experiment == seq.experiment
        assert par.description == seq.description
        assert rows_as_tuples(par) == rows_as_tuples(seq)

    def test_parallel_bench_record_bit_identical(self, tmp_path):
        """The persisted BENCH_*.json bytes agree modulo the creation
        stamp (pinned by passing an explicit ``created``)."""
        store = BenchStore(tmp_path)
        seq = [sweep_mod.sweep_theorem11_apsp(seeds=(0, 1), sizes=(8,)),
               sweep_mod.sweep_table1_exact(seeds=(0,), sizes=(8,))]
        p_seq = store.save("seq", seq, created="pinned")

        tasks = [SweepTask("repro.analysis.sweep:sweep_theorem11_apsp",
                           {"seeds": (0, 1), "sizes": (8,)}),
                 SweepTask("repro.analysis.sweep:sweep_table1_exact",
                           {"seeds": (0,), "sizes": (8,)})]
        par = SweepExecutor(jobs=4).run(tasks)
        p_par = store.save("par", par, created="pinned")

        seq_bytes = p_seq.read_bytes().replace(b'"seq"', b'"NAME"')
        par_bytes = p_par.read_bytes().replace(b'"par"', b'"NAME"')
        assert par_bytes == seq_bytes

    def test_jobs_1_degenerate_runs_inline(self):
        """jobs=1 must not touch multiprocessing at all (it is the
        fallback for platforms without it)."""
        ex = SweepExecutor(jobs=1)
        (rep,) = ex.run([SweepTask(
            "repro.analysis.sweep:sweep_theorem11_apsp",
            {"seeds": (0,), "sizes": (8,)})])
        seq = sweep_mod.sweep_theorem11_apsp(seeds=(0,), sizes=(8,))
        assert rows_as_tuples(rep) == rows_as_tuples(seq)

    def test_reference_backend_tasks_match_default(self):
        seq = sweep_mod.sweep_theorem11_apsp(seeds=(0, 1), sizes=(8, 12))
        (ref,) = SweepExecutor(jobs=2, backend="reference").run(
            experiment_tasks("E2", jobs=2, seeds=(0, 1), sizes=(8, 12)))
        assert rows_as_tuples(ref) == rows_as_tuples(seq)

    def test_multi_report_sweep_merges_in_order(self):
        """E5 returns two reports (dilation + congestion); per-seed tasks
        must merge back into two reports with sequential row order."""
        seq_d, seq_c = sweep_mod.sweep_short_range(seeds=(0, 1), sizes=(10,))
        par = run_experiment("E5", jobs=2, seeds=(0, 1), sizes=(10,))
        assert [r.experiment for r in par] == ["E5a", "E5b"]
        assert rows_as_tuples(par[0]) == rows_as_tuples(seq_d)
        assert rows_as_tuples(par[1]) == rows_as_tuples(seq_c)


class TestTaskBuilding:
    def test_splittable_experiment_splits_by_seed(self):
        tasks = experiment_tasks("E2", jobs=4, seeds=(0, 1, 2), sizes=(8,))
        assert [t.kwargs["seeds"] for t in tasks] == [(0,), (1,), (2,)]
        assert all(t.kwargs["sizes"] == (8,) for t in tasks)

    def test_non_splittable_experiment_stays_single_task(self):
        for exp in ("E6", "E10", "E15", "E19"):
            assert not EXPERIMENT_SWEEPS[exp].seed_splittable
            tasks = experiment_tasks(exp, jobs=4)
            assert len(tasks) == 1

    def test_default_seeds_read_from_signature(self):
        tasks = experiment_tasks("E18", jobs=4)
        assert [t.kwargs["seeds"] for t in tasks] == [(0,), (1,)]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="E99"):
            experiment_tasks("E99")

    def test_bad_func_ref(self):
        with pytest.raises(ValueError, match="module.path:function"):
            SweepTask("no_colon_here").resolve()

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)


def _boom(**kwargs):  # must be importable by workers: module-level
    raise RuntimeError("kaboom-in-worker")


class TestFailureSurfacing:
    def test_worker_exception_carries_traceback(self):
        task = SweepTask("test_sweep_executor:_boom", {"x": 1})
        with pytest.raises(SweepWorkerError) as exc:
            SweepExecutor(jobs=2).run_tasks([task, task])
        msg = str(exc.value)
        assert "kaboom-in-worker" in msg   # the original error
        assert "RuntimeError" in msg       # worker-side traceback text
        assert "test_sweep_executor:_boom" in msg  # which task died

    def test_inline_exception_propagates(self):
        with pytest.raises(RuntimeError, match="kaboom"):
            SweepExecutor(jobs=1).run_tasks(
                [SweepTask("test_sweep_executor:_boom")])


class TestMergeReports:
    def test_groups_by_experiment_first_seen_order(self):
        from repro.analysis.records import ExperimentReport

        a1 = ExperimentReport("A", "a")
        a1.add({"i": 0}, measured=1.0)
        b = ExperimentReport("B", "b")
        b.add({"i": 0}, measured=2.0)
        a2 = ExperimentReport("A", "a")
        a2.add({"i": 1}, measured=3.0)
        merged = merge_reports([[a1, b], [a2]])
        assert [r.experiment for r in merged] == ["A", "B"]
        assert [m.params["i"] for m in merged[0].rows] == [0, 1]
        # merging copies rows; the input reports are untouched
        assert len(a1.rows) == 1

    def test_conflicting_descriptions_raise(self):
        """Same experiment id + different description = two unrelated
        sweeps (or two versions of one); merging them would file rows
        under the wrong header, so it must raise, naming both."""
        from repro.analysis.records import ExperimentReport

        v1 = ExperimentReport("A", "old wording")
        v1.add({"i": 0}, measured=1.0)
        v2 = ExperimentReport("A", "new wording")
        v2.add({"i": 1}, measured=2.0)
        with pytest.raises(ValueError) as exc:
            merge_reports([[v1], [v2]])
        msg = str(exc.value)
        assert "'old wording'" in msg and "'new wording'" in msg
        assert "'A'" in msg


class TestBackendValidation:
    def test_task_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            SweepTask("repro.analysis.sweep:sweep_theorem11_apsp",
                      backend="nope")

    def test_task_rejects_empty_backend(self):
        """The '' fall-through: ``t.backend or self.backend`` treats an
        empty string as "use the executor default", silently running on
        the wrong backend.  Reject it at construction instead, with the
        same error text the backend registry uses."""
        with pytest.raises(ValueError, match="unknown simulator backend ''"):
            SweepTask("repro.analysis.sweep:sweep_theorem11_apsp",
                      backend="")

    def test_executor_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            SweepExecutor(jobs=1, backend="")

    def test_none_backend_still_defaults(self):
        assert SweepTask("repro.analysis.sweep:sweep_theorem11_apsp").backend is None


def _sleep_report(delay=2.0):  # module-level: importable by workers
    import time as _time
    from repro.analysis.records import ExperimentReport

    _time.sleep(delay)
    rep = ExperimentReport("SLOW", "sleeper")
    rep.add({"delay": delay}, measured=delay)
    return rep


def _touch_marker(path=""):
    from repro.analysis.records import ExperimentReport

    import pathlib
    pathlib.Path(path).write_text("ran")
    rep = ExperimentReport("MARK", "marker")
    rep.add({"path": path}, measured=0.0)
    return rep


class TestCancelOnFailure:
    def test_pending_tasks_cancelled_after_failure(self, tmp_path):
        """A failing task must abort the whole batch: the failure
        surfaces while sleepers pin both workers, so the queued marker
        tasks behind them are cancelled rather than executed.  The pool
        pre-buffers up to ``max_workers + 1`` items to its call queue
        (CPython's EXTRA_QUEUED_CALLS) and those can no longer be
        cancelled, so a small fixed prefix of markers may still run --
        but never the backlog.  Without cancellation every marker runs
        (shutdown(wait=True) drains the whole queue)."""
        markers = [tmp_path / f"marker{i}.txt" for i in range(8)]
        tasks = [SweepTask("test_sweep_executor:_boom"),
                 SweepTask("test_sweep_executor:_sleep_report",
                           {"delay": 2.0}),
                 SweepTask("test_sweep_executor:_sleep_report",
                           {"delay": 2.1})]
        tasks += [SweepTask("test_sweep_executor:_touch_marker",
                            {"path": str(p)}) for p in markers]
        with pytest.raises(SweepWorkerError, match="kaboom"):
            SweepExecutor(jobs=2).run_tasks(tasks)
        # run_tasks only returns after its pool has shut down, so this
        # is not a race: a marker missing here was cancelled, not slow.
        ran = [p for p in markers if p.exists()]
        assert len(ran) <= 4, (  # jobs + prefetch(1) + slack(1)
            f"{len(ran)} of {len(markers)} pending tasks still ran "
            f"after the batch failed -- cancellation is not happening")
        assert not markers[-1].exists()
