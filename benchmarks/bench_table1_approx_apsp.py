"""E12 -- Table I (approx) / Theorem I.5: (1+eps)-approximate APSP with
zero weights: ratio guarantee plus the substrate's round budget."""

from repro.analysis.experiments import sweep_table1_approx


def test_table1_approx_apsp(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_table1_approx(seeds=(0, 1), sizes=(8, 12),
                                    epsilons=(0.5, 1.0)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()
    for m in rep.rows:
        assert m.params["worst_ratio"] <= 1 + m.params["eps"]
