"""Differential suite for the node-state kernels (ISSUE 5).

Replays Hypothesis-generated operation traces -- inserts with every
eviction policy, SP promotions with demote + evict_over_budget, identity
removals, and the full query surface (pos/nu/count/fire) -- against both
the indexed :class:`~repro.core.node_list.NodeList` and the naive
:class:`~repro.core.node_list.ReferenceNodeList`, asserting observable
equality after every step: entry sequences, 1-based positions, nu
counts, eviction victims, fire rounds, and the incremental max.

Twin entries: each operation creates one Entry per list (same data,
distinct objects) so identity-based semantics (remove, eviction victims)
are exercised on both sides independently.

Also covers the REPRO_PARANOID debug mode: a paranoid run over a full
trace must be silent, and a deliberately corrupted kernel index must be
*caught* by the paranoid cross-checks (that the checks can fail is the
test that they check anything).

Last, the columnar kernel's schedule resume
(:func:`repro.perf.columnar_pipelined._resume_index`) is pinned against
a full bisection on a real NodeList.
"""

import math
import random
from bisect import bisect_right
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Entry, NodeList, ReferenceNodeList, set_paranoid
from repro.core import node_list as nl_mod
from repro.core.keys import first_due
from repro.perf.columnar_pipelined import _resume_index


def _twin_pair(rng: random.Random, gamma: float, n_sources: int
               ) -> Tuple[Entry, Entry]:
    d = rng.randint(0, 8)
    l = rng.randint(0, 8)
    x = rng.randint(0, n_sources - 1)
    kappa = d * gamma + l
    return Entry(kappa, d, l, x), Entry(kappa, d, l, x)


def _assert_equal_state(fast: NodeList, slow: ReferenceNodeList,
                        live: List[Tuple[Entry, Entry]]) -> None:
    assert len(fast) == len(slow)
    assert [e.sort_key for e in fast] == [e.sort_key for e in slow]
    assert fast.max_entries_any_source() == slow.max_entries_any_source()
    for ef, es in live:
        assert fast.pos(ef) == slow.pos(es)
        assert fast.nu_of(ef) == slow.nu_of(es)
        assert fast.count_for_source(ef.x) == slow.count_for_source(es.x)


def _drop_pair(live: List[Tuple[Entry, Entry]],
               removed_f: Optional[Entry], removed_s: Optional[Entry]) -> None:
    assert (removed_f is None) == (removed_s is None)
    if removed_f is None:
        return
    for i, (ef, es) in enumerate(live):
        if ef is removed_f:
            # the victims must be the *same* resident, not merely
            # key-equal entries
            assert es is removed_s
            del live[i]
            return
    raise AssertionError("evicted entry was not a resident twin")


def _run_trace(n_ops: int, seed: int, gamma: float, n_sources: int,
               fast=None, slow=None) -> Tuple[NodeList, ReferenceNodeList]:
    rng = random.Random(seed)
    fast = NodeList() if fast is None else fast
    slow = ReferenceNodeList() if slow is None else slow
    live: List[Tuple[Entry, Entry]] = []
    for _step in range(n_ops):
        op = rng.random()
        if op < 0.15:
            _quota_step(rng, gamma, n_sources, fast, slow, live)
        elif op < 0.55 or not live:
            # plain insert under a randomly chosen eviction policy
            budget = rng.choice([None, 1, 2, 4])
            ef, es = _twin_pair(rng, gamma, n_sources)
            pos_f, rem_f = fast.insert(ef, budget)
            pos_s, rem_s = slow.insert(es, budget)
            assert pos_f == pos_s
            live.append((ef, es))
            _drop_pair(live, rem_f, rem_s)
        elif op < 0.75:
            # SP promotion: insert_sp, demote a random old same-source
            # SP twin if any, then evict_over_budget (Steps 9-11)
            ef, es = _twin_pair(rng, gamma, n_sources)
            ef.flag_sp = es.flag_sp = True
            assert fast.insert_sp(ef) == slow.insert_sp(es)
            live.append((ef, es))
            for of, os_ in live:
                if of is not ef and of.x == ef.x and of.flag_sp:
                    of.flag_sp = os_.flag_sp = False
                    break
            budget = rng.choice([1, 2, 4])
            _drop_pair(live, fast.evict_over_budget(ef, budget),
                       slow.evict_over_budget(es, budget))
        elif op < 0.85:
            ef, es = live[rng.randrange(len(live))]
            fast.remove(ef)
            slow.remove(es)
            live.remove((ef, es))
        else:
            # query-only step: the send schedule
            r = rng.randint(1, 40)
            ff, sf = fast.fire_at(r), slow.fire_at(r)
            assert (ff is None) == (sf is None)
            if ff is not None:
                assert fast.pos(ff) == slow.pos(sf)
                assert ff.sort_key == sf.sort_key
            assert fast.next_fire_after(r) == slow.next_fire_after(r)
        # spot probes every step
        if live:
            ef, es = live[rng.randrange(len(live))]
            assert fast.pos(ef) == slow.pos(es)
            assert fast.nu_of(ef) == slow.nu_of(es)
            qx = rng.randint(0, n_sources - 1)
            qkey = (rng.randint(0, 8) * gamma + rng.randint(0, 8),
                    rng.randint(0, 8), qx)
            assert fast.count_for_source_below(qx, qkey) == \
                slow.count_for_source_below(qx, qkey)
        assert fast.max_entries_any_source() == slow.max_entries_any_source()
    _assert_equal_state(fast, slow, live)
    for r in range(1, 60):
        ff, sf = fast.fire_at(r), slow.fire_at(r)
        assert (ff is None) == (sf is None)
        assert fast.next_fire_after(r) == slow.next_fire_after(r)
    return fast, slow


def _quota_step(rng: random.Random, gamma: float, n_sources: int,
                fast: NodeList, slow: ReferenceNodeList,
                live: List[Tuple[Entry, Entry]]) -> None:
    """Step 13 in one call on both lists: nu below, at and above the
    source's entry count, and candidates whose key ties the nu-th
    same-source key (a tie counts as below, so those are rejected).
    Both sides must agree on the verdict, the position and the
    victim."""
    x = rng.randint(0, n_sources - 1)
    same = [e for e in fast if e.x == x]
    nu = max(0, len(same) + rng.choice([-2, -1, 0, 1, 2]))
    if 1 <= nu <= len(same) and rng.random() < 0.4:
        tie = same[nu - 1]
        kappa, d, l = tie.kappa, tie.d, tie.l
    else:
        d, l = rng.randint(0, 8), rng.randint(0, 8)
        kappa = d * gamma + l
    budget = rng.choice([None, 1, 2, 4])
    parent = rng.randint(0, 5)
    admit = slow.count_for_source_below(x, (kappa, d, x)) < nu
    hit_f = fast.quota_insert(kappa, d, l, x, parent, nu, budget)
    hit_s = slow.quota_insert(kappa, d, l, x, parent, nu, budget)
    assert (hit_f is not None) == (hit_s is not None) == admit
    if hit_f is None:
        return
    (ef, pos_f, rem_f), (es, pos_s, rem_s) = hit_f, hit_s
    assert pos_f == pos_s == fast.pos(ef)
    assert (ef.sort_key, ef.l, ef.parent, ef.flag_sp) \
        == (es.sort_key, es.l, es.parent, es.flag_sp) \
        == ((kappa, d, x), l, parent, False)
    live.append((ef, es))
    _drop_pair(live, rem_f, rem_s)


@st.composite
def traces(draw):
    return (draw(st.integers(min_value=1, max_value=60)),
            draw(st.integers(min_value=0, max_value=10 ** 6)),
            draw(st.sampled_from([1.0, math.sqrt(2), 3.5, 0.25])),
            draw(st.sampled_from([1, 2, 4, 8])))


@settings(max_examples=220, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traces())
def test_kernel_matches_reference_over_traces(trace):
    """>= 200 Hypothesis traces: the acceptance-criterion pin."""
    n_ops, seed, gamma, n_sources = trace
    _run_trace(n_ops, seed, gamma, n_sources)


def test_kernel_matches_reference_long_trace():
    """One long deterministic trace (deeper than Hypothesis' examples)."""
    _run_trace(2000, seed=20, gamma=math.sqrt(2), n_sources=6)


def test_duplicate_key_storm():
    """Heavy exact-duplicate traffic: the regime where the old pos()
    degraded to O(n) and where per-source tie handling must exactly
    mirror the global bisect_right placement."""
    fast, slow = NodeList(), ReferenceNodeList()
    live = []
    for i in range(120):
        x = i % 3
        ef, es = Entry(2.0, 1, 1, x), Entry(2.0, 1, 1, x)
        pf, rf = fast.insert(ef, 10 ** 9)
        ps, rs = slow.insert(es, 10 ** 9)
        assert pf == ps and rf is None and rs is None
        live.append((ef, es))
    rng = random.Random(1)
    rng.shuffle(live)
    for ef, es in live[:60]:
        fast.remove(ef)
        slow.remove(es)
    rest = live[60:]
    _assert_equal_state(fast, slow, rest)


def test_paranoid_mode_silent_on_correct_kernel():
    prev = set_paranoid(True)
    try:
        _run_trace(300, seed=11, gamma=1.0, n_sources=3)
    finally:
        set_paranoid(prev)


def test_paranoid_mode_catches_corrupted_index():
    """Corrupt each internal index in turn; every paranoid query family
    must trip an AssertionError -- proof the cross-checks check."""
    def fresh():
        nl = NodeList()
        for i in range(8):
            nl.insert(Entry(float(i), i, 0, i % 2), budget=None)
        return nl

    prev = set_paranoid(True)
    try:
        nl = fresh()
        nl._max_count += 1  # desync the count histogram
        with pytest.raises(AssertionError):
            nl.max_entries_any_source()

        nl = fresh()
        e = nl.entries()[3]
        nl._keys[2], nl._keys[3] = nl._keys[3], nl._keys[2]  # unsort keys
        with pytest.raises(AssertionError):
            nl.pos(e)

        nl = fresh()
        e = nl.entries()[0]
        e._li = 1  # break the identity index
        with pytest.raises((AssertionError, ValueError)):
            nl.nu_of(e)

        nl = fresh()
        # Source 0's keys are (0, 0, 0), (2, 2, 0), ...: two sit at or
        # below (3, 3, 0), so nu = 2 is rejected.  A corrupted second
        # key makes the one-comparison quota admit it.
        nl._src_keys[0][1] = (99.0, 99, 0)
        with pytest.raises(AssertionError, match="quota_insert"):
            nl.quota_insert(3.0, 3, 0, 0, None, 2, None)
    finally:
        set_paranoid(prev)


def test_paranoid_fire_at_asserts_at_most_one_send():
    """The reference fire_at (and paranoid kernel fire_at) must reject a
    hand-built list violating the at-most-one-send property.  Such a
    list cannot arise from sorted inserts -- build it by hand."""
    slow = ReferenceNodeList()
    a, b = Entry(1.2, 1, 0, 0), Entry(0.4, 0, 1, 1)
    slow._entries = [a, b]  # unsorted: both fire in round ceil at 3
    slow._keys = [a.sort_key, b.sort_key]
    assert math.ceil(a.kappa + 1) == math.ceil(b.kappa + 2) == 3
    with pytest.raises(AssertionError):
        slow.fire_at(3)

    prev = set_paranoid(True)
    try:
        fast = NodeList()
        fast._entries = [a, b]
        fast._keys = [a.sort_key, b.sort_key]
        with pytest.raises(AssertionError):
            fast.fire_at(3)
    finally:
        set_paranoid(prev)


def test_module_flag_reads_environment(tmp_path):
    """REPRO_PARANOID=1 in the environment seeds the module flag."""
    import subprocess
    import sys
    import os
    code = ("import repro.core.node_list as m; "
            "print(m.PARANOID)")
    env = dict(os.environ, REPRO_PARANOID="1",
               PYTHONPATH=os.pathsep.join(["src"] +
                                          os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=".",
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
    assert nl_mod.PARANOID in (True, False)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([1.0, math.sqrt(2), 3.5, 0.25]))
def test_resume_index_matches_full_bisection(seed, gamma):
    """The kernel's resume after one round of mutations equals a full
    bisection of the changed list.  The round r and its first-due index
    are taken on a random list; then come inserts that pass Invariant 1
    at r (the only ones ``fold`` lets through), with Insert's eviction,
    and removals -- ``fold``'s parent-id twin removal, which can land
    below the first-due index, and plain removals anywhere, which reach
    the search from the low-water mark."""
    rng = random.Random(seed)
    nl = NodeList()
    for _ in range(rng.randint(0, 30)):
        d, l = rng.randint(0, 8), rng.randint(0, 8)
        nl.insert_sp(Entry(d * gamma + l, d, l, rng.randint(0, 3),
                           flag_sp=rng.random() < 0.3))
    keys = nl._keys
    if keys and rng.random() < 0.7:
        # a round some entry fires in, so a twin can go just above it
        j = rng.randrange(len(keys))
        r = math.ceil(keys[j][0] + j + 1)
    else:
        r = rng.randint(0, 40)
    first = first_due(keys, r)
    nl.low_water = nl_mod.UNTOUCHED

    def passes_invariant_1(kappa, d, x):
        return math.ceil(kappa + bisect_right(nl._keys, (kappa, d, x)) + 1) > r

    for _ in range(rng.randint(1, 8)):
        op = rng.random()
        if op < 0.5 or not len(nl):
            d, l, x = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 3)
            kappa = d * gamma + l
            if passes_invariant_1(kappa, d, x):
                nl.insert(Entry(kappa, d, l, x), rng.choice([None, 1, 2, 4]))
        elif op < 0.8:
            # parent-id twin: the promoted twin goes above its equal
            # keys, then the demoted one is removed from below it
            below = nl.entries()[:first]
            old = rng.choice(below if below and rng.random() < 0.7
                             else nl.entries())
            if passes_invariant_1(old.kappa, old.d, old.x):
                nl.insert_sp(Entry(old.kappa, old.d, old.l, old.x,
                                   flag_sp=True))
                nl.remove(old)
        else:
            nl.remove(rng.choice(nl.entries()))
    assert _resume_index(nl, first, r, 1) == first_due(nl._keys, r)
    assert nl.low_water == nl_mod.UNTOUCHED
