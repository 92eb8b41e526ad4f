"""E18 -- resilience: wrapped algorithms under seeded message drops.

Reports the rounds/messages overhead of the ack/retransmit wrapper at
drop rates {0, 0.01, 0.05, 0.1} and asserts that every run converged to
the exact oracle distances (the resilience claim; see
docs/ALGORITHM.md, "Fault model & resilience").
"""

from repro.analysis import sweep_fault_tolerance


def test_fault_tolerance_overhead(benchmark):
    rep = benchmark.pedantic(
        lambda: sweep_fault_tolerance(
            drop_rates=(0.0, 0.01, 0.05, 0.1), seeds=(0, 1), sizes=(10, 14)),
        rounds=1, iterations=1)
    bad = [m for m in rep.rows if not m.extra["correct"]]
    assert not bad, (
        f"{len(bad)} fault-injected runs produced wrong distances: "
        + "; ".join(str(m.params) for m in bad))
