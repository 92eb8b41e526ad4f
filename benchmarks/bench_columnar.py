"""E23 -- wall-clock speedup of the columnar bulk-synchronous backend.

The sweep (repro.analysis.sweep.sweep_columnar) times single-source
Bellman-Ford on random-weight grid graphs on the fast backend and the
columnar backend -- the message-volume-dominated regime the columnar
engine's bulk array rounds target -- and differentially re-checks every
timed pair (distances, hops, parents, rounds, messages, words,
per-channel and per-node counters), so a "speedup" can never hide a
divergence.

The pytest-benchmark test below pins only the direction.  The CI floor
-- >= 2x over the fast backend at the largest size -- is the
``columnar`` entry of ``benchmarks/gates.py``, which also persists
``BENCH_columnar.json``.
"""

from repro.analysis.sweep import sweep_columnar


def _largest(rep):
    return max(rep.rows, key=lambda m: m.params["n"])


def test_columnar_speedup(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_columnar(sides=(30, 60), repeats=3),
        rounds=1, iterations=1)
    # The hard gate (>=2x at the largest size) is benchmarks/gates.py
    # (best-of-3 on a quiet runner); here we only pin the direction so a
    # busy dev machine cannot flake the suite.
    largest = _largest(rep)
    assert largest.measured > 1.0, (
        f"columnar backend slower than fast at n={largest.params['n']}: "
        f"{largest.measured}x")
