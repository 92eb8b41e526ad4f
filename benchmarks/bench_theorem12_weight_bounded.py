"""E8 -- Theorem I.2: Algorithm 3 under bounded edge weights W.

The bound is asymptotic; the benchmark checks (a) a calibrated-constant
envelope and (b) the shape claim that rounds grow sub-linearly in W
(the W^(1/4) scaling: a 64x weight increase should cost well under 64x
the rounds).
"""

from repro.analysis.experiments import sweep_theorem12


def test_theorem12_weight_scaling(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_theorem12(seeds=(0, 1), n=16, weights=(1, 4, 16, 64)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()
    for seed in (0, 1):
        rows = {m.params["W"]: m.measured for m in rep.rows
                if m.params["seed"] == seed}
        assert rows[64] < 8 * rows[1], "rounds grew ~linearly in W"
