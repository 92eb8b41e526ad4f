"""E11 -- Table I (exact APSP): head-to-head measured rounds of the
implemented algorithms on a common zero-heavy workload.

Table I's content is asymptotic bounds from different papers; what this
reproduction can and does measure is the relative behaviour of the
algorithms actually implemented here (the 'This paper' rows and the
Bellman-Ford folklore baseline).
"""

from repro.analysis import sweep_table1_exact


def test_table1_exact_apsp(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_table1_exact(seeds=(0, 1), sizes=(8, 12, 16)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()  # Alg 1 rows carry their Theorem I.1 bound
    # every algorithm produced a row per workload
    algs = {m.params["algorithm"] for m in rep.rows}
    assert len(algs) == 3
