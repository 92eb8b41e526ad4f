"""E4 -- Invariants 1 and 2 of Algorithm 1.

Invariant 1 (insert strictly before the scheduled round) and the
one-send-per-round property are runtime assertions inside the program
and simulator: any violation fails the sweep outright.  Invariant 2's
per-source list bound is measured here.
"""

from repro.analysis import sweep_invariants


def test_invariants(benchmark):
    rep = benchmark.pedantic(lambda: sweep_invariants(seeds=range(8)),
                             rounds=1, iterations=1)
    rep.assert_within_bounds()
