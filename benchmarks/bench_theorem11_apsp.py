"""E2 -- Theorem I.1(ii): APSP in 2 n sqrt(Delta) + 2 n rounds."""

from repro.analysis import sweep_theorem11_apsp


def test_theorem11_apsp_bound(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_theorem11_apsp(seeds=(0, 1, 2), sizes=(8, 12, 16, 20)),
        rounds=1, iterations=1)
    rep.assert_within_bounds()
    # shape: measured rounds grow with n (the 2n sqrt(Delta) term)
    by_n = {}
    for m in rep.rows:
        by_n.setdefault(m.params["n"], []).append(m.measured)
    ns = sorted(by_n)
    means = [sum(by_n[n]) / len(by_n[n]) for n in ns]
    assert means[-1] > means[0]
