"""E16 (extension of E11) -- deterministic greedy blocker (Algorithm 3)
vs the [13]-style randomized sampled blocker, head to head.

The paper's Table I narrative at implementation granularity: sampling
skips the greedy machinery's rounds but pays a (log n)-factor larger
blocker set, i.e. more per-blocker SSSP + broadcast phases.
"""

from repro.analysis.experiments import sweep_random_vs_deterministic

_sweep = sweep_random_vs_deterministic


def test_random_vs_deterministic(benchmark):
    rep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    qs = {}
    for m in rep.rows:
        qs.setdefault(m.params["variant"], []).append(m.params["q"])
    # sampling pays in blocker count (log n factor)
    assert sum(qs["sampled"]) >= sum(qs["greedy"])
