"""Tests of the benchmark itself (tiny sizes; a few seconds in total).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import tracing, workloads
from perfbench.verify import Checker, dijkstra_table, wrong_rows

bench.import_program()

from repro.core import api  # noqa: E402
from repro.core.routing import Route  # noqa: E402
from repro.serve import Query  # noqa: E402

END_TO_END, PER_LAYER = bench.declared()


def _measure(name, seed=3, trace=False):
    return bench.measure(name, seed, 1.0, trace, sizes=workloads.TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_untraced(name):
    report = _measure(name)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[metric]
        assert entry["value"] > 0, metric
    assert not any(line.startswith("FALLBACK") for line in report["lines"])
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_traced(name):
    report = _measure(name, trace=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["perf.kernel_rounds"]["value"] > 0
    assert any(line.startswith("parts-sum") for line in report["lines"])


def test_wrappers_are_restored():
    original = api.apsp
    with tracing.installed(tracing.Tracer()):
        assert api.apsp is not original
    assert api.apsp is original


def test_call_without_kernel_rounds_is_a_fallback(tmp_path):
    from repro.obs import ProfileSession
    run = workloads.Run(1, 1.0, workloads.TINY, tmp_path)
    with ProfileSession() as prof:
        run.profile = prof
        before = run.kernel_rounds()
        run.expect_kernel(before, "idle call")
        api.apsp(workloads._generate(workloads.TINY, 1),
                 method=workloads.METHOD, backend=workloads.BACKEND)
        run.expect_kernel(before, "solve")
    assert run.kernel_rounds() > before
    assert run.fallbacks == ["idle call"]


def test_samples_scale_by_the_bracketing_calibrations(tmp_path):
    run = workloads.Run(1, 1.0, workloads.TINY, tmp_path)
    ref = workloads.CALIB_REF_S
    run.calib = [(0.0, ref / 2), (10.0, ref * 1.5), (20.0, ref * 2)]
    # A sample between two calibrations takes their mean (ref here); one
    # after the last takes the last alone.
    assert run.scaled([(5.0, 3.0), (25.0, 3.0)]) == pytest.approx([3.0, 1.5])
    run.calibrate()
    assert len(run.calib) == 4 and run.calib[-1][1] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in END_TO_END


def test_seed_changes_inputs_not_metric_set(tmp_path):
    def arcs(seed):
        run = workloads.Run(seed, 1.0, workloads.TINY, tmp_path)
        return workloads._draw_graph(run, "apsp0").arcs

    assert arcs(1) == arcs(1)
    assert arcs(1) != arcs(2)
    a = _measure("serve_churn", seed=1)["result"]["metrics"]
    b = _measure("serve_churn", seed=2)["result"]["metrics"]
    assert set(a) == set(b) == set(END_TO_END)


# -- the verifier -----------------------------------------------------------

ARCS = {(0, 1): 2, (1, 2): 3, (0, 2): 9, (2, 0): 1, (1, 0): 4}


def test_verifier_accepts_right_answers():
    table = dijkstra_table(3, ARCS)
    assert table[0] == [0.0, 2.0, 5.0]
    queries = [Query(0, 2, "distance"), Query(0, 2, "path"),
               Query(1, 1, "path")]
    answers = [5.0, Route(0, 2, 5.0, (0, 1, 2)), Route(1, 1, 0.0, (1,))]
    assert Checker(table, ARCS).wrong_answers(queries, answers) == 0
    assert wrong_rows({s: row for s, row in enumerate(table)}, table) == 0


def test_verifier_catches_planted_wrong_distance():
    table = dijkstra_table(3, ARCS)
    checker = Checker(table, ARCS)
    assert checker.wrong_answers([Query(0, 2, "distance")], [9.0]) == 1
    rows = {s: list(row) for s, row in enumerate(table)}
    rows[1][2] = 4.0
    assert wrong_rows(rows, table) == 1


def test_verifier_catches_broken_paths():
    table = dijkstra_table(3, ARCS)
    checker = Checker(table, ARCS)
    q = [Query(0, 2, "path")]
    assert checker.wrong_answers(q, [Route(0, 2, 5.0, (0, 1, 2))]) == 0
    # A hop that is not an arc, a path of the wrong weight, a wrong end,
    # and a distance where a route was asked for.
    for bad in (Route(0, 2, 5.0, (0, 2, 1, 2)), Route(0, 2, 9.0, (0, 2)),
                Route(0, 2, 5.0, (0, 1)), 5.0, None):
        assert checker.wrong_answers(q, [bad]) == 1, bad


# -- the parts-sum cross-check ------------------------------------------------


def _tracer(*spans):
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span(name, lo, parent, idle, hi)
                    for name, lo, hi, parent, idle in spans]
    return tracer


def test_parts_sum_matches_nested_spans():
    tracer = _tracer(("frontend.serve", 0.0, 8.0, -1, False),
                     ("serve.query_batch", 1.0, 3.0, 0, False),
                     ("serve.query_batch", 3.0, 7.0, 0, False),
                     ("bench.idle", 0.0, 5.0, 0, True))
    selfs = tracing.self_times(tracer, 0.0, 8.0)
    assert selfs["frontend.serve"] == pytest.approx(1.0)
    assert selfs["serve.query_batch"] == pytest.approx(6.0)
    assert selfs["bench.idle"] == pytest.approx(1.0)
    assert selfs["bench.unattributed"] == pytest.approx(0.0)
    _, frac, match = tracing.parts(selfs, 0.0, 8.0)
    assert frac == pytest.approx(1.0) and match
    # Two seconds outside every span: the parts miss a fifth of the wall.
    selfs = tracing.self_times(tracer, 0.0, 10.0)
    _, frac, match = tracing.parts(selfs, 0.0, 10.0)
    assert frac == pytest.approx(0.8) and not match


def test_parts_sum_flags_double_counting():
    tracer = _tracer(("core.apsp", 0.0, 10.0, -1, False),
                     ("core.apsp", 2.0, 6.0, -1, False))
    _, frac, match = tracing.parts(tracing.self_times(tracer, 0.0, 10.0),
                                   8.0, 10.0)
    assert frac == pytest.approx(1.4) and not match


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
    assert not list(Path(tmp_path).glob(".perfbench-*"))
