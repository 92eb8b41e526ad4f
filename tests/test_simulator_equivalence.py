"""Fast-forward equivalence: the simulator's idle-round skipping must be
observationally identical to naive round-by-round execution.

The trick: wrap any program so that ``next_active_round`` always says
"next round" -- the network then executes every round naively.  Running
Algorithm 1 both ways must give identical outputs, round counts, message
counts, and congestion profiles.
"""

import random

import pytest

from repro.bounds import theorem11_hk_ssp
from repro.congest import Network
from repro.core.keys import gamma_for
from repro.core.pipelined import PipelinedSSPProgram
from repro.graphs import random_graph
from repro.graphs.reference import weak_delta_bound


class NaivePipelined(PipelinedSSPProgram):
    """Same algorithm, no fast-forward hints."""

    def next_active_round(self, ctx, r):
        real = super().next_active_round(ctx, r)
        if real is None:
            return None
        return r + 1  # conservative: wake up every round


@pytest.mark.parametrize("seed", range(6))
def test_fast_forward_equivalence(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.3, seed=seed)
    h = rng.randint(1, n)
    srcs = tuple(rng.sample(range(n), rng.randint(1, n)))
    delta = weak_delta_bound(g, srcs, h)
    gamma = gamma_for(h, len(srcs), delta)
    bound = theorem11_hk_ssp(h, len(srcs), delta)

    def run(cls):
        net = Network(g, lambda v: cls(v, srcs, h, gamma, cutoff_round=bound))
        m = net.run(max_rounds=100000)
        return net.outputs(), m

    out_fast, m_fast = run(PipelinedSSPProgram)
    out_naive, m_naive = run(NaivePipelined)

    assert out_fast == out_naive
    assert m_fast.rounds == m_naive.rounds
    assert m_fast.messages == m_naive.messages
    assert m_fast.channel_messages == m_naive.channel_messages
    assert m_fast.active_rounds == m_naive.active_rounds
    # only the wall-clock accounting may differ
    assert m_fast.skipped_rounds >= 0


def test_naive_mode_still_quiesces():
    g = random_graph(6, p=0.4, w_max=3, zero_fraction=0.5, seed=9)
    srcs = (0, 2)
    delta = weak_delta_bound(g, srcs, 3)
    gamma = gamma_for(3, 2, delta)
    net = Network(g, lambda v: NaivePipelined(v, srcs, 3, gamma,
                                              cutoff_round=50))
    m = net.run(max_rounds=1000)
    assert m.rounds <= 50
