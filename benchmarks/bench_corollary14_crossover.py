"""E10 -- Corollary I.4: the improvement regime / crossover.

On a path (worst-case hop diameter) the pipelined algorithm beats the
Bellman-Ford baseline while W stays moderate (the corollary's
W = n^{1-eps} regime) and loses it once Delta ~ n W grows past ~n^2/4.
"""

from repro.analysis.experiments import sweep_corollary14_crossover


def test_corollary14_crossover(benchmark):
    n = 20
    rep = benchmark.pedantic(
        lambda: sweep_corollary14_crossover(n=n, weights=(1, 2, 4, 8, 16, 32)),
        rounds=1, iterations=1)
    winners = {m.params["W"]: m.params["winner"] for m in rep.rows}
    # small weights: pipelined wins (Corollary I.4's regime)
    assert winners[1] == "pipelined"
    assert winners[2] == "pipelined"
    # very large weights: the baseline takes over (Delta too big)
    assert winners[32] == "bellman-ford"
    # the crossover is monotone: once BF wins it keeps winning
    ws = sorted(winners)
    flipped = False
    for w in ws:
        if winners[w] == "bellman-ford":
            flipped = True
        elif flipped:
            raise AssertionError("non-monotone crossover")
