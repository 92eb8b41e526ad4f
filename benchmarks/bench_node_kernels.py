"""E20 -- wall-clock speedup of the indexed node-state kernels.

The sweep (repro.analysis.sweep.sweep_node_kernels) times Algorithm 1
with k sources spread on a weighted path -- the long-list regime where
node-side work (fire_at/next_fire_after scans, per-source counts)
dominates -- once with the indexed NodeList kernels and once with the
naive linear-scan ReferenceNodeList, both on the fast backend, and
differentially re-checks every timed pair, so a "speedup" can never
hide the kernels computing different things.  The measured gap is on
top of E19's fast-backend speedup (both arms use it).

The pytest-benchmark test below pins only the direction.  The CI floor
-- >= 1.5x at the largest size -- is the ``node_kernels`` entry of
``benchmarks/gates.py``, which also persists ``BENCH_node_kernels.json``.
"""

from repro.analysis.sweep import sweep_node_kernels


def _largest(rep):
    return max(rep.rows, key=lambda m: m.params["n"])


def test_node_kernel_speedup(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_node_kernels(repeats=2),
        rounds=1, iterations=1)
    # The hard gate (>= 1.5x at the largest size) is benchmarks/gates.py
    # (best-of-N on a quiet runner); here we only pin the direction so a
    # busy dev machine cannot flake the suite.
    largest = _largest(rep)
    assert largest.measured > 1.0, (
        f"indexed kernels slower than the linear-scan reference at "
        f"n={largest.params['n']} k={largest.params['k']}: "
        f"{largest.measured}x")
