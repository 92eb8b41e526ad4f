"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.graphs import io as gio


def run_cli(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    rc, _ = run_cli("gen", "-n", "10", "--seed", "3", "-o", str(path))
    assert rc == 0
    return str(path)


class TestGen:
    def test_gen_to_stdout(self):
        rc, out = run_cli("gen", "-n", "6", "--seed", "1")
        assert rc == 0
        g = gio.loads(out)
        assert g.n == 6

    def test_gen_families(self, tmp_path):
        for fam in ("random", "zero-cluster", "bounded-distance"):
            path = tmp_path / f"{fam}.txt"
            rc, _ = run_cli("gen", "--family", fam, "-n", "8",
                            "--seed", "2", "-o", str(path))
            assert rc == 0
            assert gio.load(path).is_comm_connected()

    def test_gen_deterministic(self):
        _, a = run_cli("gen", "-n", "8", "--seed", "5")
        _, b = run_cli("gen", "-n", "8", "--seed", "5")
        assert a == b


class TestInfo:
    def test_info_fields(self, graph_file):
        rc, out = run_cli("info", graph_file)
        assert rc == 0
        for field in ("nodes:", "edges:", "max weight", "Delta",
                      "zero-weight edges", "comm connected"):
            assert field in out


class TestAlgorithms:
    @pytest.mark.parametrize("method", ["pipelined", "blocker",
                                        "bellman-ford", "scaling", "auto"])
    def test_apsp_methods(self, graph_file, method):
        rc, out = run_cli("apsp", graph_file, "--method", method, "-q")
        assert rc == 0
        assert "rounds:" in out

    def test_apsp_prints_matrix(self, graph_file):
        rc, out = run_cli("apsp", graph_file, "--method", "pipelined")
        assert rc == 0
        assert out.count("\n") >= 10  # metrics + 10 rows

    def test_kssp(self, graph_file):
        rc, out = run_cli("kssp", graph_file, "--sources", "0,3", "-q")
        assert rc == 0
        assert "rounds:" in out

    def test_hkssp(self, graph_file):
        rc, out = run_cli("hkssp", graph_file, "--sources", "0",
                          "--hops", "2")
        assert rc == 0
        assert "gamma=" in out and "bound" in out

    def test_approx_with_verify(self, graph_file):
        rc, out = run_cli("approx", graph_file, "--eps", "1.0",
                          "--verify", "-q")
        assert rc == 0
        assert "worst measured ratio" in out


class TestBounds:
    def test_bounds_output(self):
        rc, out = run_cli("bounds", "-n", "64", "--delta", "50",
                          "--w-max", "8")
        assert rc == 0
        assert "Theorem I.1(ii) APSP" in out
        assert "optimal h" in out


class TestErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            run_cli("gen", "--family", "torus")


class TestBenchCommand:
    def test_bench_single_experiment(self):
        rc, out = run_cli("bench", "E13")
        assert rc == 0
        assert "E13a" in out and "E13b" in out
        assert "yes" in out

    def test_bench_unknown_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            run_cli("bench", "E99")

    def test_bench_case_insensitive(self):
        rc, out = run_cli("bench", "e4")
        assert rc == 0
        assert "E4" in out


class TestExplainCommand:
    def test_explain_renders_story(self, graph_file):
        rc, out = run_cli("explain", graph_file, "--source", "0",
                          "--node", "5")
        assert rc == 0
        assert "pair 0 -> 5" in out

    def test_explain_with_hop_bound(self, graph_file):
        rc, out = run_cli("explain", graph_file, "--source", "0",
                          "--node", "5", "--hops", "1")
        assert rc == 0


class TestUserErrorHandling:
    """Expected user errors exit 2 with one clean line (found during
    end-to-end verification -- they used to traceback)."""

    def test_missing_graph_file(self, capsys):
        rc = main(["apsp", "no_such_file.graph", "-q"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sources_string(self, graph_file, capsys):
        rc = main(["kssp", graph_file, "--sources", "0,banana", "-q"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("n 3 directed\ne 0 9 4\n")
        rc = main(["info", str(bad)])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestGenAdjustmentNote:
    def test_zero_cluster_note_when_n_adjusted(self, capsys):
        rc, out = run_cli("gen", "--family", "zero-cluster", "-n", "10",
                          "--clusters", "4")
        assert rc == 0
        assert "note:" in capsys.readouterr().err

    def test_no_note_when_n_divides(self, capsys):
        rc, out = run_cli("gen", "--family", "zero-cluster", "-n", "12",
                          "--clusters", "4")
        assert rc == 0
        assert "note:" not in capsys.readouterr().err


class TestFaults:
    def test_faults_smoke_resilient_run(self, graph_file):
        rc, out = run_cli("faults", graph_file, "--fault-seed", "2",
                          "--drop-rate", "0.1", "-q")
        assert rc == 0
        assert "fault plan: seed=2 drop=0.1" in out
        assert "resilient" in out
        assert "RESULT: correct" in out

    def test_faults_raw_run_reports_incorrect(self, graph_file):
        # Without the wrapper a seed that drops messages produces wrong
        # distances and a nonzero exit; scan a few seeds for one that
        # drops something (deterministic per seed, so this is stable).
        for seed in range(5):
            rc, out = run_cli("faults", graph_file, "--no-wrapper",
                              "--fault-seed", str(seed),
                              "--drop-rate", "0.3", "-q")
            if rc == 1:
                assert "RESULT: INCORRECT" in out
                break
        else:
            pytest.fail("no seed produced an incorrect raw run")

    def test_faults_crash_spec(self, graph_file):
        rc, out = run_cli("faults", graph_file, "--crash", "3@2:6", "-q")
        assert rc == 0
        assert "crash 3@2:6" in out

    def test_faults_bad_crash_spec_is_clean_error(self, graph_file, capsys):
        rc, _ = run_cli("faults", graph_file, "--crash", "nonsense")
        assert rc == 2
        assert "crash spec" in capsys.readouterr().err

    def test_faults_short_range(self, graph_file):
        rc, out = run_cli("faults", graph_file, "--algorithm",
                          "short-range", "--hops", "5",
                          "--drop-rate", "0.1", "-q")
        assert rc == 0
        assert "RESULT: correct" in out

    def test_bench_e18_registered(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["bench", "E18"])
        assert args.experiment == "E18"


class TestBackendFlag:
    """`--backend` on the instrumented commands: accepted, honored,
    identical output -- and backend errors stay one-line, exit 2."""

    def test_faults_backend_columnar_matches_reference(self, graph_file):
        args = ("faults", graph_file, "--fault-seed", "2",
                "--drop-rate", "0.2", "--delay-rate", "0.2", "-q")
        rc_ref, out_ref = run_cli(*args, "--backend", "reference")
        rc_col, out_col = run_cli(*args, "--backend", "columnar")
        assert rc_ref == 0
        assert (rc_col, out_col) == (rc_ref, out_ref)

    def test_faults_backend_columnar_short_range(self, graph_file):
        rc, out = run_cli("faults", graph_file, "--algorithm",
                          "short-range", "--hops", "5", "--drop-rate",
                          "0.1", "-q", "--backend", "columnar")
        assert rc == 0
        assert "RESULT: correct" in out

    def test_env_typo_is_clean_error_at_first_simulation(self, graph_file,
                                                         capsys, monkeypatch):
        import repro.perf.backends as backends
        monkeypatch.setenv("REPRO_BACKEND", "fasst")
        monkeypatch.setattr(backends, "_default_backend", None)
        rc, _ = run_cli("faults", graph_file, "-q")
        assert rc == 2
        err = capsys.readouterr().err
        assert "REPRO_BACKEND" in err and "fasst" in err


class TestServeCommand:
    def test_serve_bench_reports_speedup(self, graph_file):
        rc, out = run_cli("serve", "bench", graph_file,
                          "--queries", "800", "--seed", "7",
                          "--backend", "reference", "--jobs", "2")
        assert rc == 0
        assert "queries/sec" in out
        assert "speedup" in out and "hit rate" in out

    def test_serve_bench_seed_replays_same_workload(self, graph_file):
        rc1, out1 = run_cli("serve", "bench", graph_file,
                            "--queries", "300", "--seed", "4")
        rc2, out2 = run_cli("serve", "bench", graph_file,
                            "--queries", "300", "--seed", "4")
        assert rc1 == rc2 == 0
        line = [ln for ln in out1.splitlines() if "workload" in ln]
        assert line == [ln for ln in out2.splitlines() if "workload" in ln]
        assert "distinct pairs" in line[0]

    def test_serve_demo_refresh_reserves(self, graph_file):
        g = gio.load(graph_file)
        u, v, w = sorted(g.edges())[0]
        rc, out = run_cli("serve", "demo", graph_file,
                          "--query", "0,9", "--update", f"{u},{v},-")
        assert rc == 0
        assert "refresh: epoch 1" in out
        assert "RESULT: correct" in out

    def test_serve_demo_node_leave(self, graph_file):
        rc, out = run_cli("serve", "demo", graph_file, "--leave", "9")
        assert rc == 0
        assert "RESULT: correct" in out

    def test_serve_missing_file_exits_2(self, capsys):
        rc = main(["serve", "bench", "no_such_file.graph"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bad_update_spec_exits_2(self, graph_file, capsys):
        rc = main(["serve", "demo", graph_file, "--update", "0-1-2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bad_query_target_exits_2(self, graph_file, capsys):
        rc = main(["serve", "demo", graph_file, "--query", "0,99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bad_workload_params_exit_2(self, graph_file, capsys):
        rc = main(["serve", "bench", graph_file, "--queries", "-5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bad_shards_exits_2(self, graph_file, capsys):
        rc = main(["serve", "bench", graph_file, "--shards", "99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "clitest",
            "experiments": [
                {"experiment": "E2", "params": {"sizes": [8]},
                 "seeds": [0, 1]},
            ],
        }))
        return str(path)

    def test_run_then_rerun_is_all_hits(self, spec_file, tmp_path):
        store = str(tmp_path / "store")
        rc, out = run_cli("campaign", "run", "--spec", spec_file,
                          "--store", store, "--target", "inline")
        assert rc == 0
        assert "misses: 2" in out
        rc, out = run_cli("campaign", "run", "--spec", spec_file,
                          "--store", store, "--target", "inline")
        assert rc == 0
        assert "misses: 0" in out and "cache hits: 100%" in out

    def test_status_before_and_after(self, spec_file, tmp_path):
        store = str(tmp_path / "store")
        rc, out = run_cli("campaign", "status", "--spec", spec_file,
                          "--store", store)
        assert rc == 0 and "0/2 task(s) cached, 2 pending" in out
        run_cli("campaign", "run", "--spec", spec_file, "--store", store)
        rc, out = run_cli("campaign", "status", "--spec", spec_file,
                          "--store", store)
        assert rc == 0 and "2/2 task(s) cached, 0 pending" in out

    def test_report_requires_a_complete_run(self, spec_file, tmp_path,
                                            capsys):
        store = str(tmp_path / "store")
        rc, out = run_cli("campaign", "report", "--spec", spec_file,
                          "--store", store)
        assert rc == 2
        assert "run 'campaign run' first" in capsys.readouterr().err
        run_cli("campaign", "run", "--spec", spec_file, "--store", store)
        rc, out = run_cli("campaign", "report", "--spec", spec_file,
                          "--store", store)
        assert rc == 0
        assert "# Campaign report: clitest" in out and "## E2" in out

    def test_report_files_identical_across_cached_runs(
            self, spec_file, tmp_path):
        store = str(tmp_path / "store")
        r1, r2 = tmp_path / "r1.md", tmp_path / "r2.md"
        rc, _ = run_cli("campaign", "run", "--spec", spec_file,
                        "--store", store, "--report", str(r1))
        assert rc == 0
        rc, _ = run_cli("campaign", "run", "--spec", spec_file,
                        "--store", store, "--report", str(r2))
        assert rc == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_dry_run_target_never_pollutes_real_cache(
            self, spec_file, tmp_path):
        store = str(tmp_path / "store")
        rc, _ = run_cli("campaign", "run", "--spec", spec_file,
                        "--store", store, "--target", "dry-run")
        assert rc == 0
        rc, out = run_cli("campaign", "status", "--spec", spec_file,
                          "--store", store)  # default target: real kind
        assert rc == 0 and "0/2 task(s) cached" in out

    def test_bad_spec_is_a_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "experiments": [
            {"experiment": "E2", "backend": ""}]}))
        rc, out = run_cli("campaign", "run", "--spec", str(bad),
                          "--store", str(tmp_path / "s"))
        assert rc == 2
        assert "unknown simulator backend ''" in capsys.readouterr().err

    def test_committed_smoke_spec_matches_committed_baseline(
            self, tmp_path):
        """CI's smoke compare lets rows that exist on one side only
        pass; this pins that the committed spec and BENCH_baseline.json
        cover exactly the same rows, with no regression between them."""
        from pathlib import Path

        from repro.campaign import (CampaignRunner, CampaignSpec,
                                    InlineTarget, ResultStore,
                                    regression_diff)
        bench_dir = Path(__file__).parent.parent / "benchmarks"
        spec = CampaignSpec.load(bench_dir / "campaigns" / "smoke.json")
        assert spec.name == "ci-smoke"
        result = CampaignRunner(spec, ResultStore(tmp_path),
                                InlineTarget()).run()
        rep = regression_diff(result, "baseline", bench_dir, tolerance=0.05)
        assert rep.clean, rep.render()
        assert rep.only_in_baseline == [] and rep.only_in_current == [], (
            rep.render())
