"""E21 -- incremental repair vs from-scratch recompute under churn.

The sweep (repro.analysis.sweep.sweep_recovery) applies single-edge
weight updates to completed k-source runs and re-runs only the affected
sources (repro.recovery.DynamicRun), comparing ``rounds_to_repair``
against the from-scratch recompute round count on the same updated
graph; every repair is checked against the Dijkstra oracle, and the
crash-during-update rows additionally run on both simulator backends
and assert bit-identical instrumented digests.  All quantities are
deterministic round counts -- no wall clock -- so the gate cannot flake
on a busy runner.

The CI gate -- single-edge repairs strictly cheaper than recomputing
in aggregate -- is the ``recovery`` entry of ``benchmarks/gates.py``,
which also persists ``BENCH_recovery.json``; the sweep itself asserts
every per-row property.
"""

from repro.analysis.sweep import sweep_recovery


def _edge_rows(rep):
    return [m for m in rep.rows if m.params["update"] in
            ("increase", "decrease")]


def test_incremental_repair_cheaper(benchmark):
    rep = benchmark.pedantic(lambda: sweep_recovery(), rounds=1,
                             iterations=1)
    rows = _edge_rows(rep)
    assert rows, "E21 produced no single-edge update rows"
    repair = sum(m.measured for m in rows)
    full = sum(m.bound for m in rows)
    assert repair < full, (
        f"incremental repair ({repair} rounds) is not strictly cheaper "
        f"than from-scratch recompute ({full} rounds) across "
        f"{len(rows)} single-edge updates")
    # Per-row: never *more* expensive, and always oracle-correct (the
    # sweep itself asserts strictness whenever a source is unaffected,
    # plus cross-backend digest equality on the crash rows).
    for m in rep.rows:
        assert m.extra["correct"] == 1, f"incorrect repair at {m.params}"
