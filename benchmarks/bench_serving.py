"""E22 -- serving layer: batched+cached oracle queries vs naive walks.

The sweep (repro.analysis.sweep.sweep_serving) replays a seeded Zipf
query workload against a :class:`repro.serve.DistanceOracle` (per-
source-partition RoutingTable shards materialized by the k-source
pipeline on the default engine) and measures the batched+cached
steady-state serving throughput against the naive one-table-walk-per-
query baseline, with the batched answers always asserted identical to
the naive ones.  A ``build`` row per size times the same shard
materialization on the columnar engine's per-message loop vs its
pipelined bulk kernel, with the served-table digests asserted
bit-equal.  Alongside the timed rows it exercises an incremental
refresh (minimum-weight edge deleted; only affected sources recomputed,
only their shards epoch-swapped, only their cache entries invalidated;
post-refresh answers Dijkstra-checked through the cached path) and pins
the served-table digests bit-identical across both simulator
backends.

The pytest-benchmark test below pins only the direction.  The CI gate
-- batched+cached >= 5x naive at the largest size, and every refresh
row touching at least one source -- is the ``serving`` entry of
``benchmarks/gates.py``, which also persists ``BENCH_serving.json``.
The sweep itself raises on wrong answers, a diverging columnar build,
a wrong post-refresh distance, or disagreeing backend digests.
"""

from repro.analysis.sweep import sweep_serving


def _serve_rows(rep):
    return [m for m in rep.rows if m.params["row"] == "serve"]


def _largest_serve(rep):
    return max(_serve_rows(rep), key=lambda m: m.params["n"])


def _structural_failures(rep):
    """The one clock-free check the sweep does not assert itself: every
    refresh row touched at least one source."""
    return [f"refresh n={m.params['n']}: update affected no sources -- "
            f"the row gates nothing"
            for m in rep.rows
            if m.params["row"] == "refresh" and m.extra["affected"] <= 0]


def test_serving_speedup(benchmark):
    rep = benchmark.pedantic(lambda: sweep_serving(repeats=2),
                             rounds=1, iterations=1)
    assert _structural_failures(rep) == []
    # The hard gate (>= 5x at the largest size) is benchmarks/gates.py
    # (best-of-N on a quiet runner); here we only pin the direction so a
    # busy dev machine cannot flake the suite.
    largest = _largest_serve(rep)
    assert largest.measured > 1.0, (
        f"batched+cached serving slower than the naive per-query walk "
        f"at n={largest.params['n']}: {largest.measured}x")
