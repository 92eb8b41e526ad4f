"""End-to-end observability: tracing/metrics attached to real algorithm
runs, the dashboard cross-check, profiling hooks, and the ``repro obs``
CLI.  Also pins the passivity guarantee -- attaching observability must
not change a single metric of the simulated execution."""

import io

import pytest

from differential import LOOP, engine
from repro.core import apsp, run_apsp, run_kssp_blocker
from repro.graphs import random_graph
from repro.obs import (
    MetricsRegistry,
    ProfileSession,
    Tracer,
    check_phases,
    load_jsonl,
    phase_rounds,
    render_dashboard,
    run_metrics_view,
)
from repro.obs.profiling import HOT


@pytest.fixture
def g():
    return random_graph(12, p=0.35, w_max=6, zero_fraction=0.3, seed=5)


class TestTracedRuns:
    def test_pipelined_apsp_phases_match_metrics(self, g):
        tracer, reg = Tracer(), MetricsRegistry()
        res = run_apsp(g, tracer=tracer, registry=reg)
        ok, traced, total = check_phases(tracer, res.metrics)
        assert ok and traced == total == res.metrics.rounds
        assert phase_rounds(tracer) == {"pipelined": res.metrics.rounds}
        assert run_metrics_view(reg) == res.metrics
        kinds = tracer.kind_counts()
        assert kinds["net.send"] == res.metrics.messages
        assert "promote" in kinds and "insert" in kinds

    def test_blocker_kssp_phase_spans(self, g):
        tracer, reg = Tracer(), MetricsRegistry()
        res = run_kssp_blocker(g, [0, 3, 7], tracer=tracer, registry=reg)
        ok, traced, total = check_phases(tracer, res.metrics)
        assert ok, (traced, total)
        tops = [s.name for s in tracer.phases()]
        assert tops[:2] == ["csssp", "blocker-set"]
        assert {"blocker-sssp", "bfs-tree", "broadcast"} <= set(tops)
        # nested spans (pipelined inside csssp) don't distort the sum
        assert any(s.parent_id is not None for s in tracer.spans)
        assert len(tracer.of_kind("blocker.elect")) == len(res.blockers)
        assert run_metrics_view(reg) == res.metrics

    def test_traced_faulty_run_records_fault_events(self, g):
        from repro.core.bellman_ford import run_bellman_ford
        from repro.faults import FaultPlan

        tracer = Tracer()
        run_bellman_ford(g, 0, fault_plan=FaultPlan(seed=2, drop_rate=0.3),
                         tracer=tracer)
        faults = tracer.of_kind("fault")
        assert faults and all(e.data[0] == "drop" for e in faults)


class TestPassivity:
    def test_attaching_obs_does_not_change_the_run(self, g):
        """Observation is passive: every RunMetrics field is identical
        with and without the full observability stack attached."""
        bare = run_apsp(g)
        with ProfileSession():
            observed = run_apsp(g, tracer=Tracer(),
                                registry=MetricsRegistry())
        assert observed.metrics == bare.metrics
        assert observed.dist == bare.dist

    def test_hot_is_off_by_default(self):
        assert HOT.session is None


class TestProfiling:
    # The per-message loops: the reference and the columnar engine's own
    # loop.  The engine's bulk kernel records its own round timer
    # instead (next test).
    @pytest.mark.parametrize("backend", ["reference", LOOP])
    def test_hot_loops_report_timers(self, g, backend):
        with ProfileSession() as prof, engine(backend) as name:
            run_apsp(g, backend=name)
        names = set(prof.timers)
        assert {"network.round", "node.send_many",
                "node_list.fire_at", "node_list.next_fire_after"} <= names
        assert prof.wall_seconds > 0
        assert "network.round" in prof.report()
        assert HOT.session is None  # deactivated on exit

    def test_columnar_kernel_reports_round_timer(self, g):
        """The pipelined bulk kernel's round timer records samples --
        the signal perfbench's FALLBACK detection reads."""
        with ProfileSession() as prof:
            run_apsp(g, backend="columnar")
        assert prof.timers["columnar.pipelined.round"].count > 0
        assert HOT.session is None

    def test_sessions_do_not_nest(self):
        with ProfileSession():
            with pytest.raises(RuntimeError):
                with ProfileSession():
                    pass
        assert HOT.session is None

    def test_cprofile_capture(self, g):
        with ProfileSession(cprofile=True) as prof:
            run_apsp(g)
        assert "function calls" in prof.stats_text()


class TestDashboard:
    def test_render_full(self, g):
        tracer, reg = Tracer(), MetricsRegistry()
        with ProfileSession() as prof:
            res = run_apsp(g, tracer=tracer, registry=reg)
        text = render_dashboard(tracer=tracer, registry=reg,
                                metrics=res.metrics, profile=prof)
        assert "== run metrics ==" in text
        assert "pipelined" in text and "MATCH" in text
        assert "congest.rounds" in text
        assert "congest.round_wall_s" in text
        assert "network.round" in text

    def test_render_empty(self):
        assert render_dashboard() == "(nothing to show)"


class TestObsCLI:
    def _write_graph(self, tmp_path, g):
        from repro.graphs import io as gio
        path = tmp_path / "g.graph"
        gio.save(g, path)
        return str(path)

    def test_obs_run_exports_trace_and_matches(self, tmp_path, g):
        from repro.cli import main

        gpath = self._write_graph(tmp_path, g)
        tpath = tmp_path / "trace.jsonl"
        out = io.StringIO()
        rc = main(["obs", "run", gpath, "--method", "pipelined",
                   "--export-trace", str(tpath)], out)
        assert rc == 0
        text = out.getvalue()
        assert "MATCH" in text and "MISMATCH" not in text
        recs = load_jsonl(tpath)
        assert recs[0]["type"] == "trace"
        spans = [r for r in recs if r.get("type") == "span"]
        events = [r for r in recs if r.get("type") == "event"]
        assert spans and events
        # the exported per-phase rounds agree with the dashboard's claim
        res = apsp(g, method="pipelined")
        total = sum(s["attrs"]["rounds"] for s in spans
                    if s["parent"] is None and "rounds" in s["attrs"])
        assert total == res.metrics.rounds

    def test_campaign_bench_and_obs_diff_regression_exit_codes(
            self, tmp_path, monkeypatch):
        import json

        import repro.analysis.sweep as sweep_mod
        import repro.cli as cli
        from repro.analysis import ExperimentReport
        from repro.obs import BenchStore

        rounds = {"value": 10}

        def fake_sweep(*, seeds=(0,), sizes=(8,)):
            rep = ExperimentReport("EX", "fake")
            rep.add({"n": 8}, measured=rounds["value"])
            return rep

        monkeypatch.setattr(sweep_mod, "sweep_theorem11_apsp", fake_sweep)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "fake", "experiments": [{"experiment": "E2"}]}))
        store = str(tmp_path / "bench")

        def bench(name, *flags, out=None):
            # --force: the fake's source, hence its cache key, never
            # changes between runs
            return cli.main(["campaign", "run", "--spec", str(spec),
                             "--store", str(tmp_path / "campaign"),
                             "--force", "--bench-store", store,
                             "--bench-name", name, *flags],
                            out or io.StringIO())

        assert bench("base") == 0
        # identical run: clean
        assert bench("cur", "--baseline", "base") == 0
        # +20% rounds: regression -> non-zero exit code
        rounds["value"] = 12
        out = io.StringIO()
        rc = bench("bad", "--baseline", "base", "--tolerance", "0.1", out=out)
        assert rc == 1 and "REGRESSED" in out.getvalue()
        # obs diff agrees, both ways
        assert cli.main(["obs", "diff", "base", "cur", "--store", store],
                        io.StringIO()) == 0
        assert cli.main(["obs", "diff", "base", "bad", "--store", store],
                        io.StringIO()) == 1
        assert BenchStore(store).names() == ["bad", "base", "cur"]
