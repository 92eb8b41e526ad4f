"""E14 -- ablation of Algorithm 1's design choices.

(a) the blended key kappa = d*gamma + l with the paper's gamma vs a
hops-heavy (gamma = 1) and a distance-heavy (8x) setting: the paper's
gamma respects its Theorem I.1 bound; skewing gamma towards the
distance term inflates completion rounds on zero-heavy graphs.
(b) budget-triggered vs always eviction: both correct under the final
output semantics; 'always' trades smaller lists for less schedule
padding.
"""

from repro.analysis.experiments import sweep_ablation_key_schedule


def test_ablation_key_schedule(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_ablation_key_schedule(seeds=(0, 1, 2), n=14),
        rounds=1, iterations=1)
    rep.assert_within_bounds()  # only the paper rows carry bounds
    by_variant = {}
    for m in rep.rows:
        by_variant.setdefault(m.params["variant"], []).append(m.measured)
    mean = lambda xs: sum(xs) / len(xs)
    # distance-heavy keys delay completion vs the paper's balance
    assert mean(by_variant["distance-heavy(8x)"]) > mean(by_variant["paper"])
    # always-eviction yields smaller lists than budget eviction
    assert mean(by_variant["eviction=always"]) <= mean(by_variant["eviction=budget"])
