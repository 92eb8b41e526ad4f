"""E24 -- wall-clock speedup of the columnar pipelined (h, k)-SSP kernel.

The sweep (repro.analysis.sweep.sweep_columnar_pipelined) times the
paper's actual algorithm -- ``run_hk_ssp`` on dense directed random
graphs with spread sources -- on the fast backend and on the columnar
backend's pipelined bulk kernel (repro.perf.columnar_pipelined), and
differentially re-checks every timed pair (distances, source set,
Delta, rounds, messages, words, per-channel and per-node counters), so
a "speedup" can never hide a divergence.

The pytest-benchmark test below pins only the direction.  The CI floor
-- >= 2x over the fast backend at the largest size -- is the
``columnar_pipelined`` entry of ``benchmarks/gates.py``, which also
persists ``BENCH_columnar_pipelined.json``.
"""

from repro.analysis.sweep import sweep_columnar_pipelined


def _largest(rep):
    return max(rep.rows, key=lambda m: m.params["n"])


def test_columnar_pipelined_speedup(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_columnar_pipelined(
            sizes=((96, 0.12, 12, 10), (128, 0.10, 16, 12)), repeats=3),
        rounds=1, iterations=1)
    # The hard gate (>=2x at the largest size) is benchmarks/gates.py
    # (best-of-3 on a quiet runner); here we only pin the direction so a
    # busy dev machine cannot flake the suite.
    largest = _largest(rep)
    assert largest.measured > 1.0, (
        f"columnar pipelined kernel slower than fast at "
        f"n={largest.params['n']}: {largest.measured}x")
