"""E15 (extension) -- the Section V open-problem construction: Gabow
scaling over concurrent short-range instances.

Not a claim of the paper proper; this regenerates the construction its
conclusion proposes ("n different SSSP computations in conjunction with
the randomized scheduling result of Ghaffari") and measures it against
the direct Algorithm 1 APSP, plus the FIFO-vs-timesliced composition
advantage behind it.
"""

from repro.analysis.experiments import sweep_extension_scaling

_sweep = sweep_extension_scaling


def test_extension_scaling(benchmark):
    rep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rep.assert_within_bounds()  # fifo composition beats timesliced
    # scaling beats direct Algorithm 1 once weights are large: Alg 1
    # pays sqrt(Delta) ~ sqrt(nW), scaling pays log W phases of
    # small-Delta work.
    for seed in (0, 1):
        rows = {m.params["W"]: m for m in rep.rows
                if m.params["seed"] == seed and m.params["algorithm"] == "scaling"}
        assert rows[512].measured < rows[512].extra["alg1_rounds"]
