"""Model-based tests: the optimized implementations against naive
reference models, driven by hypothesis-generated operation sequences."""

import math
import random
from typing import List, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import NodeList
from repro.core.entries import Entry
from repro.core.keys import send_round


class NaiveList:
    """Brute-force reference for NodeList: a plain list of entry tuples
    ``(kappa, d, x, l, parent)`` re-sorted after every operation, with
    positions recomputed from scratch.  Entries are found by identity
    (twins are equal tuples).  The model never holds a flag-d* entry:
    the test inserts none."""

    def __init__(self) -> None:
        self.items: List[Entry] = []

    def index(self, e: Entry) -> int:
        return next(i for i, z in enumerate(self.items) if z is e)

    def insert(self, e: Entry, budget: Optional[int]) -> Optional[Entry]:
        # stable placement above equal keys: sort by (key, arrival index)
        self.items.append(e)
        self.items.sort(key=lambda z: z[:3])
        # among equal sort keys keep arrival order (python sort is stable,
        # and the newcomer was appended last)
        removed = None
        same = [z for z in self.items if z[2] == e[2]]
        if budget is None or len(same) > budget:
            idx = self.index(e)
            for j in range(idx + 1, len(self.items)):
                z = self.items[j]
                if z[2] == e[2]:
                    removed = z
                    del self.items[j]
                    break
        return removed

    def pos(self, e: Entry) -> int:
        return self.index(e) + 1

    def nu(self, e: Entry) -> int:
        i = self.index(e)
        return sum(1 for z in self.items[:i + 1] if z[2] == e[2])

    def count_below(self, x: int, key) -> int:
        return sum(1 for z in self.items if z[2] == x and z[:3] <= key)

    def fire_at(self, r: int) -> Optional[Entry]:
        hits = [z for i, z in enumerate(self.items)
                if send_round(z[0], i + 1) == r]
        assert len(hits) <= 1
        return hits[0] if hits else None


@st.composite
def op_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    budget = draw(st.sampled_from([None, 1, 2, 4]))
    gamma = draw(st.sampled_from([1.0, math.sqrt(2), 3.5]))
    return n_ops, seed, budget, gamma


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(op_sequences())
def test_node_list_matches_naive_model(ops):
    n_ops, seed, budget, gamma = ops
    rng = random.Random(seed)
    fast, slow = NodeList(), NaiveList()
    for step in range(n_ops):
        d = rng.randint(0, 8)
        l = rng.randint(0, 8)
        x = rng.randint(0, 3)
        kappa = d * gamma + l
        # entries must be distinct objects with identical data (built
        # at run time, so never one folded constant)
        ef = (kappa, d, x, l, None)
        es = (kappa, d, x, l, None)
        _pos, removed_f = fast.insert(ef, budget)
        removed_s = slow.insert(es, budget)
        assert (removed_f is None) == (removed_s is None)
        if removed_f is not None:
            assert removed_f == removed_s

        # full structural agreement after every step
        assert list(fast) == slow.items
        # spot-check queries
        if len(fast):
            probe = rng.choice(fast.entries())
            naive_twin = slow.items[fast.pos(probe) - 1]
            assert probe == naive_twin
            assert fast.nu_of(probe) == slow.nu(naive_twin)
            qx = rng.randint(0, 3)
            qkey = (rng.randint(0, 8) * gamma + rng.randint(0, 8),
                    rng.randint(0, 8), qx)
            assert fast.count_for_source_below(qx, qkey) == \
                slow.count_below(qx, qkey)
        r = rng.randint(1, 30)
        ff, sf = fast.fire_at(r), slow.fire_at(r)
        assert (ff is None) == (sf is None)
        if ff is not None:
            assert ff == sf
