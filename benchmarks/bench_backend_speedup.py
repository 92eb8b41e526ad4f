"""E19 -- wall-clock speedup of the fast simulator backend.

The sweep (repro.analysis.sweep.sweep_backend_speedup) times the
Theorem I.1 pipelined algorithm on weighted path graphs on both
backends -- the regime where the reference backend's per-round O(n)
scans dominate -- and differentially re-checks every timed pair, so a
"speedup" can never hide a divergence.  Each size is measured twice:
with no hooks and with the full hook set attached (fault plan + tracer
+ ring recorder), because with hooks attached the fast backend's
delivery loop also runs their per-message work, and that cost needs
its own regression gate.

The pytest-benchmark test below pins only the direction.  The CI
floors -- >= 2x plain and >= 1.5x instrumented at the largest size --
are the ``backend_speedup`` entry of ``benchmarks/gates.py``, which
also persists ``BENCH_backend_speedup.json``.
"""

from repro.analysis.sweep import sweep_backend_speedup


def _largest(rep, hooks):
    rows = [m for m in rep.rows if m.params["hooks"] == hooks]
    return max(rows, key=lambda m: m.params["n"])


def test_backend_speedup(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_backend_speedup(sizes=(768, 1536), repeats=3),
        rounds=1, iterations=1)
    # The hard gates (>=2x plain, >=1.5x instrumented) are
    # benchmarks/gates.py (best-of-3 on a quiet runner); here we only pin
    # the direction so a busy dev machine cannot flake the suite.
    for hooks in ("none", "full"):
        largest = _largest(rep, hooks)
        assert largest.measured > 1.0, (
            f"fast backend slower than reference at "
            f"n={largest.params['n']} (hooks={hooks}): "
            f"{largest.measured}x")
