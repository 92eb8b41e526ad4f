"""E6 -- Figure 1 / Lemma III.4: CSSSP construction.

Reproduces the figure's phenomenon (plain h-hop pointers are not an
h-hop tree; the 2h-hop construction is consistent) and checks the
construction cost against the Theorem I.1 bound of the 2h-hop run.
"""

from repro.analysis.experiments import sweep_csssp


def test_csssp_consistency_and_cost(benchmark):
    rep = benchmark.pedantic(lambda: sweep_csssp(seeds=(0, 1, 2), sizes=(8, 12)),
                             rounds=1, iterations=1)
    rep.assert_within_bounds()
    fig1 = rep.rows[0]
    # Figure 1: the DP reaches t (d=2) but CSSSP correctly omits it
    assert fig1.params["plain_dp_d(t)"] == 2
    assert fig1.params["csssp_contains_t"] is False
