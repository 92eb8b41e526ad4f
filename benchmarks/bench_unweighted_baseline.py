"""E13 -- the [12] baseline (2n rounds, unweighted) and its
positive-weight generalisation (Delta + n rounds), the starting points
the paper builds on."""

from repro.analysis.experiments import sweep_unweighted_baseline


def test_unweighted_and_positive_baselines(benchmark):
    rep_u, rep_p = benchmark.pedantic(
        lambda: sweep_unweighted_baseline(seeds=(0, 1, 2), sizes=(8, 16, 24)),
        rounds=1, iterations=1)
    rep_u.assert_within_bounds()
    rep_p.assert_within_bounds()
