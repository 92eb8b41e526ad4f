"""Unit tests for the list_v data structure of Algorithm 1.

Every test runs against BOTH kernels -- the indexed ``NodeList`` and the
naive ``ReferenceNodeList`` -- via the ``Kernel`` fixture: the two must
be observably identical (the Hypothesis trace suite in
test_node_list_kernels.py pins the same claim at scale).

An entry is the plain tuple ``(kappa, d, x, l, parent)``.  ``E`` builds
one from its arguments at run time, so two calls with equal values give
two distinct objects (equal tuple literals in one code object may be
folded into one constant).
"""

import gc

import pytest

from repro.core import NodeList, ReferenceNodeList, run_apsp
from repro.core.keys import send_round
from repro.graphs import random_graph


@pytest.fixture(params=["indexed", "reference"])
def Kernel(request):
    return {"indexed": NodeList, "reference": ReferenceNodeList}[request.param]


def E(kappa, d, l, x, parent=None):
    return (kappa, d, x, l, parent)


def ids(entries):
    """Entries by identity: equal tuples are distinct residents."""
    return [id(e) for e in entries]


class TestOrdering:
    def test_sorted_by_kappa_d_x(self, Kernel):
        nl = Kernel()
        e1 = E(5.0, 2, 1, 3)
        e2 = E(3.0, 1, 1, 1)
        e3 = E(5.0, 1, 3, 2)   # same kappa as e1, smaller d -> below
        for e in (e1, e2, e3):
            nl.insert(e)
        assert nl.entries() == [e2, e3, e1]
        assert nl.pos(e2) == 1 and nl.pos(e3) == 2 and nl.pos(e1) == 3

    def test_equal_sort_key_newcomer_goes_above(self, Kernel):
        nl = Kernel()
        a = E(4.0, 2, 2, 7)
        b = E(4.0, 2, 2, 7)  # exact duplicate key
        nl.insert(a)
        nl.insert(b)
        assert ids(nl.entries()) == ids([a, b])
        assert nl.pos(b) == 2

    def test_pos_of_missing_entry_raises(self, Kernel):
        nl = Kernel()
        with pytest.raises(ValueError):
            nl.pos(E(1.0, 1, 0, 0))


class TestCounts:
    def test_nu_counts_same_source_at_or_below(self, Kernel):
        nl = Kernel()
        e1 = E(1.0, 1, 0, 5)
        e2 = E(2.0, 2, 0, 9)
        e3 = E(3.0, 3, 0, 5)
        for e in (e1, e2, e3):
            nl.insert(e)
        assert nl.nu_of(e1) == 1
        assert nl.nu_of(e3) == 2
        assert nl.nu_of(e2) == 1

    def test_count_for_source_below_includes_ties(self, Kernel):
        nl = Kernel()
        nl.insert(E(2.0, 1, 1, 4))
        nl.insert(E(4.0, 2, 2, 4))
        assert nl.count_for_source_below(4, (2.0, 1, 4)) == 1  # tie counts
        assert nl.count_for_source_below(4, (3.0, 1, 4)) == 1
        assert nl.count_for_source_below(4, (9.0, 9, 9)) == 2
        assert nl.count_for_source_below(5, (9.0, 9, 9)) == 0

    def test_max_entries_any_source(self, Kernel):
        nl = Kernel()
        for i in range(3):
            nl.insert(E(float(i), i, 0, 1))
        nl.insert(E(0.5, 0, 0, 2))
        assert nl.max_entries_any_source() == 3


class TestEviction:
    def test_budget_none_always_evicts_closest_nonsp_above(self, Kernel):
        nl = Kernel()
        sp = E(5.0, 3, 1, 1)
        non1 = E(6.0, 4, 1, 1)
        non2 = E(8.0, 5, 1, 1)
        nl.insert_sp(sp)
        for e in (non1, non2):
            nl.insert(e, budget=None)
        # non1 evicted non-SP above when non2 was inserted? order: sp,
        # non1 (evicts nothing above), non2 (evicts nothing above).
        newcomer = E(5.5, 3, 2, 1)
        pos, removed = nl.insert(newcomer, budget=None)
        assert removed is non1  # closest non-SP above
        assert pos == 2

    def test_sp_flag_protects_from_eviction(self, Kernel):
        nl = Kernel()
        sp = E(6.0, 3, 1, 1)
        nl.insert_sp(sp)
        newcomer = E(5.0, 2, 3, 1)
        _, removed = nl.insert(newcomer, budget=None)
        assert removed is None  # only non-SP entries above are victims

    def test_budget_respected_no_eviction_below_budget(self, Kernel):
        nl = Kernel()
        nl.insert(E(1.0, 1, 0, 1), budget=3)
        nl.insert(E(2.0, 2, 0, 1), budget=3)
        _, removed = nl.insert(E(0.5, 0, 1, 1), budget=3)
        assert removed is None
        assert len(nl) == 3

    def test_budget_exceeded_triggers_eviction(self, Kernel):
        nl = Kernel()
        a = E(1.0, 1, 0, 1)
        b = E(2.0, 2, 0, 1)
        nl.insert(a, budget=2)
        nl.insert(b, budget=2)
        _, removed = nl.insert(E(0.5, 0, 1, 1), budget=2)
        assert removed is a  # closest non-SP above the newcomer

    def test_eviction_only_same_source(self, Kernel):
        nl = Kernel()
        other = E(2.0, 2, 0, 9)
        nl.insert(other, budget=None)
        _, removed = nl.insert(E(1.0, 1, 0, 1), budget=None)
        assert removed is None

    def test_evict_over_budget_method(self, Kernel):
        nl = Kernel()
        sp = E(1.0, 0, 1, 1)
        old = E(2.0, 1, 1, 1)
        nl.insert_sp(sp)
        nl.insert(old, budget=None)
        assert nl.evict_over_budget(sp, budget=2) is None
        assert nl.evict_over_budget(sp, budget=1) is old
        assert len(nl) == 1

    def test_remove_by_identity(self, Kernel):
        nl = Kernel()
        a = E(1.0, 1, 0, 1)
        b = E(1.0, 1, 0, 1)
        nl.insert(a)
        nl.insert(b)
        nl.remove(a)
        assert ids(nl.entries()) == ids([b])


class TestSendSchedule:
    def test_fire_at_returns_scheduled_entry(self, Kernel):
        nl = Kernel()
        e1 = E(1.5, 1, 1, 1)   # pos 1 -> fires ceil(2.5) = 3
        e2 = E(4.0, 2, 2, 2)   # pos 2 -> fires 6
        nl.insert(e1)
        nl.insert(e2)
        assert nl.fire_at(3) is e1
        assert nl.fire_at(6) is e2
        assert nl.fire_at(4) is None

    def test_at_most_one_fire_per_round(self, Kernel):
        """Sortedness + distinct positions make the schedule collision
        free (DESIGN.md sec. 6); build a dense list and check every round."""
        nl = Kernel()
        import random
        rng = random.Random(7)
        gamma = 1.4142135623730951
        for i in range(40):
            d = rng.randint(0, 10)
            l = rng.randint(0, 10)
            nl.insert(E(d * gamma + l, d, l, rng.randint(0, 5)))
        for r in range(1, 80):
            nl.fire_at(r)  # raises AssertionError on collision

    def test_next_fire_after(self, Kernel):
        nl = Kernel()
        e1 = E(1.5, 1, 1, 1)
        nl.insert(e1)
        assert nl.next_fire_after(0) == send_round(1.5, 1)
        assert nl.next_fire_after(send_round(1.5, 1)) is None

class TestEdgeSemantics:
    """The corner cases the kernel rewrite must not bend (ISSUE 5)."""

    def test_empty_list_fire_and_next(self, Kernel):
        nl = Kernel()
        assert nl.fire_at(1) is None
        assert nl.fire_at(10 ** 9) is None
        assert nl.next_fire_after(0) is None
        assert nl.next_fire_after(10 ** 9) is None

    def test_equal_key_run_positions_and_nu(self, Kernel):
        # a run of exact duplicates: newcomers stack above, pos/nu must
        # stay per-entry exact (the ReferenceNodeList pos degrades to a
        # linear walk here; the kernel's identity index must agree)
        nl = Kernel()
        run = [E(4.0, 2, 2, 7) for _ in range(6)]
        for e in run:
            nl.insert(e)
        for i, e in enumerate(run):
            assert nl.pos(e) == i + 1
            assert nl.nu_of(e) == i + 1
        below = E(1.0, 1, 0, 3)
        nl.insert(below)
        for i, e in enumerate(run):
            assert nl.pos(e) == i + 2
            assert nl.nu_of(e) == i + 1

    def test_budget_none_vs_budget_eviction(self, Kernel):
        # literal (budget=None) eviction fires on every insert; the
        # budget-triggered policy only past the allowance
        for budget, expect_evict in ((None, True), (3, False), (1, True)):
            nl = Kernel()
            a = E(1.0, 1, 0, 1)
            b = E(3.0, 3, 0, 1)
            nl.insert(a, budget=budget)
            nl.insert(b, budget=budget)
            _, removed = nl.insert(E(2.0, 2, 0, 1), budget=budget)
            assert (removed is b) == expect_evict

    def test_insert_sp_then_evict_over_budget_interplay(self, Kernel):
        # the Steps 9-11 dance: insert_sp never evicts on its own; the
        # follow-up evict_over_budget call takes the old entry only when
        # the budget demands it, and only once demoted to non-SP (the
        # new holder's insert_sp demotes it)
        nl = Kernel()
        old = E(5.0, 3, 1, 1)
        pad = E(7.0, 4, 1, 1)
        nl.insert_sp(old)
        nl.insert(pad, budget=None)
        assert nl.flagged[1] is old
        new = E(4.0, 2, 4, 1)
        assert nl.insert_sp(new) == 1
        assert len(nl) == 3  # no eviction yet
        assert nl.flagged[1] is new
        assert nl.evict_over_budget(new, budget=3) is None
        victim = nl.evict_over_budget(new, budget=2)
        assert victim is old  # closest non-SP above the new SP entry
        assert nl.entries() == [new, pad]

    def test_remove_within_equal_key_run_keeps_identity(self, Kernel):
        nl = Kernel()
        run = [E(2.0, 1, 1, 4) for _ in range(4)]
        for e in run:
            nl.insert(e)
        nl.remove(run[1])
        assert ids(nl.entries()) == ids([run[0], run[2], run[3]])
        assert [nl.pos(e) for e in (run[0], run[2], run[3])] == [1, 2, 3]
        with pytest.raises(ValueError):
            nl.pos(run[1])

    def test_max_entries_tracks_eviction_and_removal(self, Kernel):
        nl = Kernel()
        ones = [E(float(i), i, 0, 1) for i in range(3)]
        for e in ones:
            nl.insert(e)
        nl.insert(E(0.5, 0, 0, 2))
        assert nl.max_entries_any_source() == 3
        nl.remove(ones[2])
        assert nl.max_entries_any_source() == 2
        nl.remove(ones[0])
        nl.remove(ones[1])
        assert nl.max_entries_any_source() == 1
        nl.remove(nl.entries()[0])
        assert nl.max_entries_any_source() == 0


class TestIdentityAmongEqualEntries:
    """Entries that compare equal as tuples are distinct list residents:
    one sender's two equal-key entries relayed by the same parent arrive
    as equal tuples, and past 2**53 two hop counts can share a key.
    Every operation must act on the object it is given, so a kernel
    that finds entries with ``list.index``, ``list.remove`` or ``in``
    fails here."""

    X = 5

    def twins(self):
        # kappa >= 2**54: l = 1 and l = 2 round to the same key, so c
        # ties a and b on (kappa, d, x) with a different l
        d = 2 ** 54
        kappa = d * 1.0 + 1
        assert d * 1.0 + 2 == kappa
        a = E(kappa, d, 1, self.X, parent=3)
        b = E(kappa, d, 1, self.X, parent=3)
        c = E(kappa, d, 2, self.X, parent=3)
        assert a == b and a is not b and c != a
        return a, b, c

    def test_newcomer_goes_above_and_is_found_by_identity(self, Kernel):
        nl = Kernel()
        low = E(1.0, 1, 0, self.X)
        a, b, c = self.twins()
        for e in (low, a, b, c):
            assert nl.insert(e, budget=10)[1] is None
        assert ids(nl) == ids([low, a, b, c])
        assert [nl.pos(e) for e in (a, b, c)] == [2, 3, 4]
        assert [nl.nu_of(e) for e in (a, b, c)] == [2, 3, 4]

    def test_remove_takes_the_named_twin(self, Kernel):
        nl = Kernel()
        a, b, c = self.twins()
        for e in (a, b, c):
            nl.insert(e, budget=10)
        nl.remove(b)
        assert ids(nl) == ids([a, c])
        assert (nl.pos(a), nl.pos(c), nl.nu_of(c)) == (1, 2, 2)
        with pytest.raises(ValueError):
            nl.pos(b)

    def test_quota_counts_ties_as_below(self, Kernel):
        nl = Kernel()
        a, b, c = self.twins()
        for e in (a, b, c):
            nl.insert(e, budget=10)
        kappa, d = a[0], a[1]
        assert nl.count_for_source_below(self.X, (kappa, d, self.X)) == 3
        assert nl.quota_insert(kappa, d, 1, self.X, 3, 3, 10) is None
        z, pos, removed = nl.quota_insert(kappa, d, 1, self.X, 3, 4, 10)
        assert z == a and z is not a and z is not b
        assert (pos, removed) == (4, None)
        assert nl.entries()[-1] is z

    def test_eviction_takes_the_named_twin_and_spares_the_holder(
            self, Kernel):
        nl = Kernel()
        a, b, _c = self.twins()
        nl.insert_sp(b)          # b is the flag-d* holder ...
        nl.insert(a, budget=10)  # ... and its equal twin a sits above it
        assert ids(nl) == ids([b, a])
        low = E(1.0, 1, 0, self.X)
        _pos, removed = nl.insert(low, budget=None)
        assert removed is a      # the closest non-SP entry above
        assert ids(nl) == ids([low, b])
        assert nl.flagged[self.X] is b
        assert (nl.pos(b), nl.nu_of(b)) == (2, 2)
        # and once more through evict_over_budget: b is never a victim
        assert nl.evict_over_budget(low, budget=0) is None
        assert nl.flagged[self.X] is b and len(nl) == 2


@pytest.mark.parametrize("backend", ["reference", "columnar"])
def test_list_entries_escape_the_collector(backend, monkeypatch):
    """An entry is a plain tuple of numbers (and a parent or None), which
    CPython's collector stops tracking at its first collection.  A
    namedtuple or class instance would stay tracked for the whole run."""
    from repro.core.pipelined import PipelinedSSPProgram
    programs = []
    on_start = PipelinedSSPProgram.on_start

    def start_spy(self, ctx):
        on_start(self, ctx)
        programs.append(self)

    monkeypatch.setattr(PipelinedSSPProgram, "on_start", start_spy)
    g = random_graph(10, p=0.35, w_max=5, zero_fraction=0.3, seed=4)
    run_apsp(g, backend=backend)
    gc.collect()
    entries = [e for p in programs for e in p.list_v]
    assert len(programs) == g.n and len(entries) > g.n
    assert not [e for e in entries if gc.is_tracked(e)]
