"""E9 -- Theorem I.3: Algorithm 3 under bounded shortest-path distances.

Shape claim: a 16x increase in Delta costs well under 16x the rounds
(the Delta^(1/3) scaling)."""

from repro.analysis.experiments import sweep_theorem13


def test_theorem13_distance_scaling(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_theorem13(seeds=(0, 1), n=16, deltas=(2, 8, 32)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()
    for seed in (0, 1):
        rows = {m.params["Delta<="]: m.measured for m in rep.rows
                if m.params["seed"] == seed}
        assert rows[32] < 8 * rows[2], "rounds grew ~linearly in Delta"
