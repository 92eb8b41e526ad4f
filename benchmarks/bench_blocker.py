"""E7 -- Section III-B: blocker set size and Algorithm 4's round bound
(Lemma III.8)."""

from repro.analysis.experiments import sweep_blocker


def test_blocker_size_and_alg4_rounds(benchmark):
    rep_size, rep_alg4 = benchmark.pedantic(
        lambda: sweep_blocker(seeds=(0, 1, 2), sizes=(8, 12, 16)),
        rounds=1, iterations=1)
    rep_size.assert_within_bounds()
    rep_alg4.assert_within_bounds()
    assert rep_alg4.rows, "no blocker picks happened in the sweep"
