"""E3 -- Theorem I.1(iii): k-SSP in 2 sqrt(Delta k n) + n + k rounds."""

from repro.analysis import sweep_theorem11_kssp


def test_theorem11_kssp_bound(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_theorem11_kssp(seeds=(0, 1), sizes=(10, 14, 18)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()
    # shape: for fixed n, more sources cannot be cheaper than 1 source
    # by more than the bound ratio (sanity that k enters the cost)
    by_nk = {(m.params["n"], m.params["k"]): m.measured for m in rep.rows
             if m.params["seed"] == 0}
    for n in {n for n, _ in by_nk}:
        ks = sorted(k for nn, k in by_nk if nn == n)
        assert by_nk[(n, ks[-1])] >= by_nk[(n, ks[0])] * 0.5
