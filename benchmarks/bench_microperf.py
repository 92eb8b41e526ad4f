"""Micro-benchmarks of the simulator's hot paths (wall-clock, not
rounds): NodeList operations and the network round loop.

These exist to catch wall-clock regressions in the data structures the
profiling pass identified as dominant (see the optimisation notes in
node.py / node_list.py); they make pytest-benchmark's timing machinery
do real work instead of wrapping whole sweeps.
"""

import random

from repro.core import NodeList
from repro.core.keys import gamma_for, key_of
from repro.core import run_apsp
from repro.graphs import random_graph


def build_list(n_entries=200, seed=1):
    rng = random.Random(seed)
    g = gamma_for(8, 4, 16)
    nl = NodeList()
    for _ in range(n_entries):
        d, l, x = rng.randint(0, 16), rng.randint(0, 8), rng.randint(0, 7)
        nl.insert((key_of(d, l, g), d, x, l, None), budget=5)
    return nl, g


def test_node_list_insert(benchmark):
    rng = random.Random(2)
    g = gamma_for(8, 4, 16)

    def insert_batch():
        nl = NodeList()
        for _ in range(300):
            d, l, x = rng.randint(0, 16), rng.randint(0, 8), rng.randint(0, 7)
            nl.insert((key_of(d, l, g), d, x, l, None), budget=5)
        return len(nl)

    assert benchmark(insert_batch) > 0


def test_node_list_fire_scan(benchmark):
    nl, _ = build_list()

    def scan():
        hits = 0
        for r in range(1, 120):
            if nl.fire_at(r) is not None:
                hits += 1
        return hits

    benchmark(scan)


def test_node_list_next_fire(benchmark):
    nl, _ = build_list()
    benchmark(lambda: nl.next_fire_after(0))


def test_full_apsp_wall_clock(benchmark):
    g = random_graph(20, p=0.25, w_max=5, zero_fraction=0.3, seed=3)
    result = benchmark.pedantic(lambda: run_apsp(g), rounds=3, iterations=1)
    assert result.metrics.rounds > 0
