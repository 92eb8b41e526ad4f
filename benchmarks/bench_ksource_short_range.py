"""E17 -- the k-source short-range variant (paper, end of Section II-C):
dilation ~ sqrt(Delta h k) + h and total per-node congestion ~ sqrt(hk)
under the joint gamma = sqrt(hk/Delta) schedule."""

from repro.analysis.experiments import sweep_ksource_short_range

_sweep = sweep_ksource_short_range


def test_ksource_short_range(benchmark):
    rep_d, rep_c = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rep_d.assert_within_bounds()
    rep_c.assert_within_bounds()
