"""Campaign layer: spec expansion, memoization, and resumability.

The load-bearing guarantees under test:

* a spec expands into the same ordered task list every time, so merged
  reports are independent of scheduling and of who populated the cache;
* the store key changes iff something that affects the measurement
  changes -- the sweep function's *own* source, its canonicalized
  parameters, or the backend -- and nothing else;
* a campaign killed mid-run resumes: completed tasks are cache hits,
  only the remainder executes, and the merged reports are byte-identical
  to an uninterrupted run's.
"""

import json
import sys
import textwrap

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    DryRunTarget,
    ExperimentGrid,
    InlineTarget,
    ProcessTarget,
    ResultStore,
    canonical_params,
    code_digest,
    expand,
    make_target,
    render_campaign_report,
    render_experiments_md,
)
from repro.obs import BenchStore
from repro.perf import SweepTask, SweepWorkerError
from repro.perf.sweep_executor import EXPERIMENT_SWEEPS


def tiny_spec(**kw):
    """Two real experiments, small enough to run inline in tests."""
    return CampaignSpec("tiny", (
        ExperimentGrid("E2", params={"sizes": (8,)}, seeds=(0, 1)),
        ExperimentGrid("E11", params={"sizes": (8,)}, seeds=(0,)),
    ), **kw)


def dry_spec():
    """A spec for DryRunTarget tests: grid x seeds = 6 tasks."""
    return CampaignSpec("dry", (
        ExperimentGrid("E2", grid={"sizes": [(8,), (10,)]}, seeds=(0, 1)),
        ExperimentGrid("E11", params={"sizes": (8,)}, seeds=(0, 1)),
    ))


def rows_as_tuples(report):
    return [(m.params, m.measured, m.bound, m.extra) for m in report.rows]


class TestSpecValidation:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment 'E99'"):
            ExperimentGrid("E99")

    def test_empty_backend_rejected_like_the_registry(self):
        """'' must fail spec validation with the registry's own error
        text, not fall through to 'use the default backend' later."""
        with pytest.raises(ValueError, match="unknown simulator backend ''"):
            ExperimentGrid("E2", backend="")
        with pytest.raises(ValueError, match="unknown simulator backend ''"):
            CampaignSpec("x", (ExperimentGrid("E2"),), backend="")

    def test_params_grid_overlap(self):
        with pytest.raises(ValueError, match="both 'params' and 'grid'"):
            ExperimentGrid("E2", params={"sizes": (8,)},
                           grid={"sizes": [(8,), (10,)]})

    def test_empty_grid_axis(self):
        with pytest.raises(ValueError, match="non-empty list"):
            ExperimentGrid("E2", grid={"sizes": []})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment-entry keys"):
            ExperimentGrid.from_dict({"experiment": "E2", "sizes": [8]})
        with pytest.raises(ValueError, match="unknown campaign keys"):
            CampaignSpec.from_dict({"name": "x", "experiments": [],
                                    "target": "inline"})

    def test_empty_campaign(self):
        with pytest.raises(ValueError, match="no experiments"):
            CampaignSpec("x", ())

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignSpec.load(p)

    def test_round_trips_through_json(self, tmp_path):
        spec = tiny_spec(backend="reference")
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec.as_dict()))
        assert CampaignSpec.load(p) == spec


class TestExpansion:
    def test_seed_splittable_fans_one_task_per_seed(self):
        tasks = expand(tiny_spec())
        assert [(t.experiment, t.seed) for t in tasks] == [
            ("E2", 0), ("E2", 1), ("E11", 0)]
        assert all(t.task.kwargs["seeds"] == (t.seed,) for t in tasks)

    def test_non_splittable_keeps_seeds_together(self):
        spec = CampaignSpec("x", (ExperimentGrid("E6", seeds=(0, 1, 2)),))
        (task,) = expand(spec)
        assert not EXPERIMENT_SWEEPS["E6"].seed_splittable
        assert task.seed is None
        assert task.task.kwargs["seeds"] == (0, 1, 2)

    def test_grid_crosses_in_sorted_axis_order(self):
        spec = CampaignSpec("x", (ExperimentGrid(
            "E6", grid={"sizes": [(8,), (10,)], "seeds": [(0,), (1,)]}),))
        combos = [t.task.kwargs for t in expand(spec)]
        # axes sorted ("seeds" < "sizes"), values in listed order
        assert combos == [
            {"seeds": (0,), "sizes": (8,)}, {"seeds": (0,), "sizes": (10,)},
            {"seeds": (1,), "sizes": (8,)}, {"seeds": (1,), "sizes": (10,)}]

    def test_entry_backend_overrides_campaign_backend(self):
        spec = CampaignSpec("x", (
            ExperimentGrid("E2", seeds=(0,)),
            ExperimentGrid("E3", seeds=(0,), backend="reference"),
        ), backend="reference")
        t2, t3 = expand(spec)
        assert t2.task.backend == "reference"
        assert t3.task.backend == "reference"

    def test_expansion_is_deterministic(self):
        assert expand(dry_spec()) == expand(dry_spec())


class TestResultStoreKeys:
    def test_key_is_stable_across_calls(self, tmp_path):
        store = ResultStore(tmp_path)
        t = SweepTask("repro.analysis.sweep:sweep_theorem11_apsp",
                      {"seeds": (0,), "sizes": (8,)})
        assert store.key_for(t) == store.key_for(t)

    def test_key_changes_with_params_seed_backend(self, tmp_path):
        store = ResultStore(tmp_path)

        def key(**kw):
            backend = kw.pop("backend", None)
            return store.key_for(SweepTask(
                "repro.analysis.sweep:sweep_theorem11_apsp", kw, backend))

        base = key(seeds=(0,), sizes=(8,))
        assert key(seeds=(1,), sizes=(8,)) != base
        assert key(seeds=(0,), sizes=(10,)) != base
        assert key(seeds=(0,), sizes=(8,), backend="reference") != base

    def test_defaulted_and_explicit_params_share_a_key(self, tmp_path):
        """Canonicalization binds the signature and applies defaults, so
        spelling a default out loud is not a cache miss."""
        params = canonical_params(
            "repro.analysis.sweep:sweep_theorem11_apsp", {"seeds": (0,)})
        explicit = canonical_params(
            "repro.analysis.sweep:sweep_theorem11_apsp",
            {"seeds": (0,), "sizes": params["sizes"]})
        assert params == explicit

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="sweep_theorem11_apsp"):
            canonical_params("repro.analysis.sweep:sweep_theorem11_apsp",
                             {"bogus": 1})


class TestResultStoreRoundTrip:
    def task(self):
        return SweepTask("repro.analysis.sweep:sweep_theorem11_apsp",
                         {"seeds": (0,), "sizes": (8,)})

    def test_put_get_round_trip(self, tmp_path):
        from repro.analysis import ExperimentReport

        rep = ExperimentReport("E2", "desc")
        rep.add({"seed": 0, "n": 8}, measured=7.0, bound=float("inf"),
                worst=float("nan"))
        store = ResultStore(tmp_path)
        store.put(self.task(), [rep])
        (back,) = store.get(self.task())
        assert back.experiment == "E2" and back.description == "desc"
        (m,) = back.rows
        assert m.params == {"seed": 0, "n": 8}
        assert list(m.params) == ["seed", "n"]   # column order preserved
        assert m.measured == 7.0 and m.bound == float("inf")

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        """Dry-run placeholders must never shadow real measurements."""
        from repro.analysis import ExperimentReport

        store = ResultStore(tmp_path)
        store.put(self.task(), [ExperimentReport("E2", "fake")],
                  kind="dry-run")
        assert store.get(self.task(), kind="real") is None
        assert not store.contains(self.task(), kind="real")
        assert store.contains(self.task(), kind="dry-run")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.analysis import ExperimentReport

        store = ResultStore(tmp_path)
        key = store.put(self.task(), [ExperimentReport("E2", "d")])
        store.path_for(key).write_text("{truncated")
        assert store.get(self.task()) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResultStore(tmp_path).get(self.task()) is None


SWEEP_V1 = '''
from repro.analysis.records import ExperimentReport

def sweep_probe(seeds=(0,)):
    rep = ExperimentReport("E2", "probe")
    for s in seeds:
        rep.add({"seed": s}, measured=1.0)
    return rep

def sweep_other(seeds=(0,)):
    rep = ExperimentReport("E3", "other")
    rep.add({"seed": seeds[0]}, measured=2.0)
    return rep
'''

# sweep_probe's body changes; sweep_other is byte-identical.
SWEEP_V2 = SWEEP_V1.replace("measured=1.0", "measured=1.5")


class TestCodeDigestInvalidation:
    def test_editing_one_sweep_invalidates_only_that_sweep(
            self, tmp_path, monkeypatch):
        """The digest is the *function's* source, not the module's: an
        edit to sweep_probe changes sweep_probe's key and leaves
        sweep_other's key -- and therefore its cached tasks -- alone."""
        import importlib

        mod = tmp_path / "campaign_probe_mod.py"
        mod.write_text(textwrap.dedent(SWEEP_V1))
        monkeypatch.syspath_prepend(str(tmp_path))
        store = ResultStore(tmp_path / "store")
        probe = SweepTask("campaign_probe_mod:sweep_probe", {"seeds": (0,)})
        other = SweepTask("campaign_probe_mod:sweep_other", {"seeds": (0,)})
        try:
            probe_v1 = store.key_for(probe)
            other_v1 = store.key_for(other)

            mod.write_text(textwrap.dedent(SWEEP_V2))
            importlib.reload(sys.modules["campaign_probe_mod"])

            assert store.key_for(probe) != probe_v1   # edited: invalidated
            assert store.key_for(other) == other_v1   # untouched: cache hit
        finally:
            sys.modules.pop("campaign_probe_mod", None)

    def test_code_digest_matches_function_source(self, tmp_path, monkeypatch):
        mod = tmp_path / "campaign_digest_mod.py"
        mod.write_text(textwrap.dedent(SWEEP_V1))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            d1 = code_digest("campaign_digest_mod:sweep_probe")
            assert d1 == code_digest("campaign_digest_mod:sweep_probe")
            assert d1 != code_digest("campaign_digest_mod:sweep_other")
        finally:
            sys.modules.pop("campaign_digest_mod", None)


class TestDryRunResumability:
    def test_killed_campaign_resumes_with_identical_reports(self, tmp_path):
        """Kill after 3 of 6 tasks; the restart sees 3 hits, runs only
        the remaining 3, and merges to exactly what an uninterrupted
        run produces."""
        spec = dry_spec()
        store = ResultStore(tmp_path / "store")

        with pytest.raises(SweepWorkerError, match="killed after 3"):
            CampaignRunner(spec, store, DryRunTarget(fail_after=3)).run()
        assert store.size() == 3                  # completed work survived

        resumed = CampaignRunner(spec, store, DryRunTarget()).run()
        assert resumed.hits == 3 and resumed.misses == 3

        fresh = CampaignRunner(spec, ResultStore(tmp_path / "fresh"),
                               DryRunTarget()).run()
        assert fresh.misses == 6
        assert [rows_as_tuples(r) for r in resumed.reports] == \
               [rows_as_tuples(r) for r in fresh.reports]

    def test_second_run_is_all_hits(self, tmp_path):
        spec = dry_spec()
        store = ResultStore(tmp_path)
        first = CampaignRunner(spec, store, DryRunTarget()).run()
        second = CampaignRunner(spec, store, DryRunTarget()).run()
        assert first.misses == 6 and first.hits == 0
        assert second.misses == 0 and second.all_hits
        assert [rows_as_tuples(r) for r in first.reports] == \
               [rows_as_tuples(r) for r in second.reports]

    def test_status_tracks_the_store(self, tmp_path):
        spec = dry_spec()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(spec, store, DryRunTarget())
        assert runner.status().pending == 6
        runner.run()
        st = runner.status()
        assert st.done == st.total == 6
        assert st.per_experiment == {"E2": (4, 4), "E11": (2, 2)}
        assert "cached" in st.render()

    def test_collect_refuses_partial_campaigns(self, tmp_path):
        spec = dry_spec()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(spec, store, DryRunTarget())
        with pytest.raises(ValueError, match="not in the store"):
            runner.collect()
        runner.run()
        assert runner.collect().all_hits


class TestRealCampaign:
    """Real sweeps, tiny sizes: the acceptance-criteria path."""

    def test_cached_rerun_is_bit_identical_to_sequential(self, tmp_path):
        """Campaign through the store (twice) vs the plain sequential
        jobs=1 executor: same BENCH bytes, and run 2 is 100% hits."""
        from repro.perf import SweepExecutor

        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(spec, store, InlineTarget()).run()
        second = CampaignRunner(spec, store, InlineTarget()).run()
        assert first.misses == 3 and second.all_hits

        seq = SweepExecutor(jobs=1).run(
            [ct.task for ct in expand(spec)])

        bench = BenchStore(tmp_path)
        b1 = bench.save("c1", first.reports, created="pinned").read_bytes()
        b2 = bench.save("c2", second.reports, created="pinned").read_bytes()
        b3 = bench.save("c3", seq, created="pinned").read_bytes()
        assert b1.replace(b'"c1"', b'"X"') == b2.replace(b'"c2"', b'"X"') \
            == b3.replace(b'"c3"', b'"X"')

    def test_process_target_matches_inline(self, tmp_path):
        spec = tiny_spec()
        inline = CampaignRunner(spec, ResultStore(tmp_path / "a"),
                                InlineTarget()).run()
        procs = CampaignRunner(spec, ResultStore(tmp_path / "b"),
                               ProcessTarget(jobs=2)).run()
        assert [rows_as_tuples(r) for r in inline.reports] == \
               [rows_as_tuples(r) for r in procs.reports]


class TestTargets:
    def test_make_target_names(self):
        assert isinstance(make_target("inline"), InlineTarget)
        assert isinstance(make_target("dry-run"), DryRunTarget)
        proc = make_target("process", jobs=3)
        assert isinstance(proc, ProcessTarget) and proc.jobs == 3
        with pytest.raises(ValueError, match="unknown execution target"):
            make_target("cloud")

    def test_process_target_validates_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessTarget(jobs=0)

    def test_dry_run_is_deterministic(self, tmp_path):
        tasks = expand(dry_spec())
        out1 = list(DryRunTarget().execute(tasks))
        out2 = list(DryRunTarget().execute(tasks))
        assert [(i, rows_as_tuples(r[0])) for i, r in out1] == \
               [(i, rows_as_tuples(r[0])) for i, r in out2]


class TestReportRendering:
    def test_campaign_report_renders_every_experiment(self, tmp_path):
        spec = dry_spec()
        runner = CampaignRunner(spec, ResultStore(tmp_path), DryRunTarget())
        text = render_campaign_report(runner.run())
        assert "# Campaign report: dry" in text
        assert "## E2" in text and "## E11" in text
        assert "| measured |" in text

    def test_experiments_md_contains_known_sections(self, tmp_path):
        spec = tiny_spec()
        runner = CampaignRunner(spec, ResultStore(tmp_path), InlineTarget())
        text = render_experiments_md(runner.run().reports, elapsed=1.0)
        assert text.startswith("# EXPERIMENTS")
        assert "## E2 -- Theorem I.1(ii)" in text
        assert "## E11 -- Table I" in text
