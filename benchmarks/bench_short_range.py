"""E5 -- Lemma II.15: short-range dilation and congestion."""

from repro.analysis import sweep_short_range


def test_short_range_dilation_and_congestion(benchmark):
    rep_d, rep_c = benchmark.pedantic(
        lambda: sweep_short_range(seeds=(0, 1, 2), sizes=(10, 16, 22)),
        rounds=1, iterations=1)
    rep_d.assert_within_bounds()
    rep_c.assert_within_bounds()
