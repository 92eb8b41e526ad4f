"""Large-scale validation: the headline algorithms at n = 48-64,
differential-tested against the vectorized oracle.

These are the biggest instances in the default suite (a few seconds
total); the REPRO_CAMPAIGN environment variable unlocks a much wider
randomized campaign for soak testing.
"""

import os
import random

import numpy as np
import pytest

from repro.core import run_apsp, run_apsp_blocker, run_hk_ssp
from repro.graphs import apsp_matrix, random_graph
from repro.graphs.validation import assert_weak_h_hop_contract


def assert_matches_matrix(g, dist, rows=None):
    M = apsp_matrix(g)
    for x in rows if rows is not None else range(g.n):
        for v in range(g.n):
            want = M[x, v]
            got = dist[x][v]
            if np.isinf(want):
                assert got == float("inf"), (x, v)
            else:
                assert got == want, (x, v, got, want)


class TestVectorizedOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_matches_dijkstra(self, seed):
        from repro.graphs import dijkstra
        g = random_graph(20, p=0.25, w_max=6, zero_fraction=0.3, seed=seed)
        M = apsp_matrix(g)
        for s in range(0, g.n, 5):
            want = dijkstra(g, s)[0]
            for v in range(g.n):
                if want[v] == float("inf"):
                    assert np.isinf(M[s, v])
                else:
                    assert M[s, v] == want[v]


class TestLargeScale:
    def test_apsp_n48(self):
        g = random_graph(48, p=0.12, w_max=6, zero_fraction=0.3, seed=7)
        res = run_apsp(g)
        assert_matches_matrix(g, res.dist)
        assert res.metrics.rounds <= res.round_bound

    def test_apsp_n64(self):
        g = random_graph(64, p=0.09, w_max=5, zero_fraction=0.3, seed=8)
        res = run_apsp(g)
        assert_matches_matrix(g, res.dist, rows=range(0, 64, 7))
        assert res.metrics.rounds <= res.round_bound

    def test_blocker_apsp_n40(self):
        g = random_graph(40, p=0.15, w_max=6, zero_fraction=0.3, seed=9)
        res = run_apsp_blocker(g)
        assert_matches_matrix(g, res.dist, rows=range(0, 40, 5))

    def test_hk_ssp_n48_contract(self):
        g = random_graph(48, p=0.12, w_max=6, zero_fraction=0.4, seed=10)
        srcs = list(range(0, 48, 6))
        res = run_hk_ssp(g, srcs, 10)
        assert_weak_h_hop_contract(g, res.dist, res.hops, 10)


@pytest.mark.skipif(not os.environ.get("REPRO_CAMPAIGN"),
                    reason="set REPRO_CAMPAIGN=1 for the wide soak campaign")
class TestCampaign:
    def test_500_seed_campaign(self):
        failures = []
        for seed in range(500):
            rng = random.Random(seed)
            n = rng.randint(4, 20)
            g = random_graph(n, p=rng.uniform(0.1, 0.5),
                             w_max=rng.choice([0, 1, 6, 50, 1000]),
                             zero_fraction=rng.choice([0.0, 0.3, 0.7]),
                             directed=rng.random() < 0.5, seed=seed)
            h = rng.randint(1, n)
            srcs = rng.sample(range(n), rng.randint(1, n))
            try:
                res = run_hk_ssp(g, srcs, h)
                assert_weak_h_hop_contract(g, res.dist, res.hops, h)
                assert res.last_sp_update_round <= res.round_bound
            except Exception as exc:  # noqa: BLE001 - campaign collector
                failures.append((seed, repr(exc)))
        assert not failures, failures[:5]
