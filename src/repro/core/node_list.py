"""The per-node entry list ``list_v`` of Algorithm 1 -- indexed kernels.

``list_v`` is kept sorted by ``(kappa, d, x)``.  Positions are 1-based
("pos(Z) gives the number of elements at or below Z"), and ``Z.nu`` is the
number of entries *for Z's source* at or below Z.  The ``insert``
procedure implements the paper's ``Insert(Z)``: sorted insertion followed
by removal of the closest non-SP entry for the same source *above* the
insertion point, if one exists (Steps 1-4 / Observation II.3).

An entry is the plain tuple ``(kappa, d, x, l, parent)``, its own sort
key (:mod:`repro.core.entries` has the layout and its rules): entries
are ordered on their first three fields and found by identity, by
bisecting to the equal-key run and walking it with ``is``.  The paper's
``Z.flag-d*`` is the list's per-source holder ``flagged[x]``.

The list also implements the send schedule: an entry fires in round
``ceil(kappa + pos)``.  Two classes provide the same API:

* :class:`NodeList` -- the **kernel** implementation.  It exploits two
  structural facts of the paper's own schedule:

  - ``kappa + pos`` is *strictly increasing* along the list (keys are
    sorted, positions increase by exactly 1), so ``ceil(kappa + pos)``
    is strictly increasing too (Lemma II.2 / Corollary II.8 via
    DESIGN.md section 6) -- which makes :meth:`fire_at` and
    :meth:`next_fire_after` binary searches instead of full scans, and
    makes the at-most-one-send property a theorem rather than a runtime
    check;
  - equal sort keys ``(kappa, d, x)`` share the source ``x``, so every
    per-source subsequence is itself sorted and order-preserving --
    keeping one short sorted list per source (the same tuples) gives
    O(1) ``count_for_source``, O(log s) ``count_for_source_below`` and
    ``nu_of``, and Insert's eviction scans only the source's entries.

  Two more pieces serve Algorithm 1's receive step and the columnar
  kernel's send schedule:

  - :meth:`NodeList.quota_insert` is Step 13 in one call.  "Fewer than
    ``nu`` same-source entries at or below the key" fails exactly when
    the source has at least ``nu`` entries and its ``nu``-th smallest
    key is at or below the candidate's, so the quota is one key
    comparison on the per-source list.  An entry is built only for an
    admitted candidate, which goes through :meth:`insert`.
  - ``low_water`` is the lowest global index an insert or removal
    touched since its reader last reset it to :data:`UNTOUCHED`.
    Entries below it kept their index and key, so a send schedule
    computed before the mutations still holds there
    (:func:`repro.perf.columnar_pipelined._resume_index`).

* :class:`ReferenceNodeList` -- the naive linear-scan implementation the
  kernels are differentially pinned against
  (tests/test_node_list_kernels.py replays Hypothesis-generated
  insert/evict/fire traces on both).  Its ``fire_at`` scans every entry
  and *asserts* the at-most-one-send property.

Paranoid debug mode: setting ``REPRO_PARANOID=1`` in the environment (or
calling :func:`set_paranoid`) makes every kernel query re-derive its
answer with the reference linear scan and assert agreement -- including
the at-most-one-send assertion that the bisection kernel no longer needs.
Use it when changing the kernels or when a send-schedule bug is
suspected; the cost is the pre-kernel O(n) per query.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter as _perf
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from math import ceil as _ceil, inf as _INF

from ..obs.profiling import HOT as _HOT
from .entries import Entry

_Key = Tuple[float, int, int]

#: ``NodeList.low_water`` when no insert or removal has happened since
#: the mark was last reset (above every index).
UNTOUCHED = sys.maxsize

#: Paranoid cross-checking flag (module-global so the hot paths pay one
#: global load).  Seeded from the environment, toggled by set_paranoid().
PARANOID = os.environ.get("REPRO_PARANOID", "").strip().lower() \
    in ("1", "true", "yes", "on")


def set_paranoid(enabled: bool) -> bool:
    """Enable/disable paranoid cross-checking; returns the previous
    value.  Equivalent to setting ``REPRO_PARANOID=1`` before import."""
    global PARANOID
    prev, PARANOID = PARANOID, bool(enabled)
    return prev


def _find(seq: Sequence[Entry], entry: Entry) -> int:
    """Index of *entry* in the sorted *seq*, by identity: bisect to its
    equal-key run (a 3-tuple probe sorts below every entry of that key),
    then walk the run with ``is`` -- equal tuples are distinct twins."""
    i = bisect_left(seq, entry[:3])
    n = len(seq)
    while i < n and seq[i] is not entry:
        i += 1
    if i == n:
        raise ValueError("entry not on list")
    return i


class NodeList:
    """Sorted entry list with the paper's position/nu/eviction semantics
    (kernel implementation -- see the module docstring)."""

    __slots__ = ("_entries", "_src", "flagged", "low_water")

    def __init__(self) -> None:
        #: Every entry, sorted by ``(kappa, d, x)``; equal keys in
        #: arrival order.
        self._entries: List[Entry] = []
        #: Per-source entries, in global list order (an order-preserving
        #: subsequence of ``_entries``); a source with no entry has no
        #: list.
        self._src: Dict[int, List[Entry]] = {}
        #: The flag-d* entry of each source (Step 9's holder).
        self.flagged: Dict[int, Entry] = {}
        #: Lowest global index an insert or removal touched since the
        #: reader last set this back to UNTOUCHED.
        self.low_water = UNTOUCHED

    # -- basic container --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def entries(self) -> List[Entry]:
        return list(self._entries)

    def pos(self, entry: Entry) -> int:
        """1-based position of *entry* (the paper's ``pos_v(Z)``):
        O(log n) plus the length of its equal-key run."""
        p = _find(self._entries, entry) + 1
        if PARANOID:
            self._check_sorted()
            linear = next(i for i, e in enumerate(self._entries, 1)
                          if e is entry)
            assert linear == p, \
                f"pos kernel mismatch: indexed {p}, linear {linear}"
        return p

    # -- paper quantities --------------------------------------------------

    def nu_of(self, entry: Entry) -> int:
        """``Z.nu``: entries for source ``Z.x`` at or below Z (inclusive).
        The per-source list preserves global order, so nu is the entry's
        per-source index + 1, found as :meth:`pos` finds its index."""
        lst = self._src.get(entry[2])
        if lst is None:
            raise ValueError("entry not on list")
        j = _find(lst, entry) + 1
        if PARANOID:
            i = self.pos(entry)
            naive = sum(1 for e in self._entries[:i] if e[2] == entry[2])
            assert naive == j, \
                f"nu_of kernel mismatch: indexed {j}, linear {naive}"
        return j

    def count_for_source_below(self, x: int, key: _Key) -> int:
        """Number of entries for source *x* with key at most *key*
        (the count Step 13 gates on; :meth:`quota_insert` decides the
        gate without it), O(log s).

        Entries whose sort key ties the candidate's count as "below":
        a newly inserted entry goes *above* its equal-key twins (see
        :meth:`insert`), so this is exactly the number that would sit
        below it -- which is what Observation II.4's accounting
        ("at least nu- entries with key <= Z.kappa") requires.
        """
        lst = self._src.get(x)
        c = bisect_right(lst, (*key, _INF)) if lst else 0
        if PARANOID:
            naive = sum(1 for e in self._entries
                        if e[2] == x and e[:3] <= key)
            assert naive == c, \
                f"count_for_source_below mismatch: indexed {c}, linear {naive}"
        return c

    def count_for_source(self, x: int) -> int:
        lst = self._src.get(x)
        return len(lst) if lst else 0

    def max_entries_any_source(self) -> int:
        """max over sources of the per-source entry count (Invariant 2):
        one ``len`` per source holding entries."""
        top = max(map(len, self._src.values()), default=0)
        if PARANOID:
            counts: Dict[int, int] = {}
            for e in self._entries:
                counts[e[2]] = counts.get(e[2], 0) + 1
            naive = max(counts.values(), default=0)
            assert naive == top, \
                f"max_entries_any_source mismatch: " \
                f"per-source lists {top}, recount {naive}"
        return top

    # -- index maintenance -------------------------------------------------

    def _link(self, entry: Entry) -> Tuple[int, int]:
        """Add *entry* above its equal keys, to the list and to its
        source's list.  Returns its global and per-source indexes."""
        # The probe's fourth field exceeds every hop count, so it sorts
        # above every entry of the same key and the comparison never
        # reaches a parent.
        probe = (entry[0], entry[1], entry[2], _INF)
        es = self._entries
        i = bisect_right(es, probe)
        es.insert(i, entry)
        if i < self.low_water:
            self.low_water = i
        lst = self._src.get(entry[2])
        if lst is None:
            self._src[entry[2]] = [entry]
            return i, 0
        j = bisect_right(lst, probe)
        lst.insert(j, entry)
        return i, j

    def _unlink(self, entry: Entry, src_index: int) -> None:
        """Remove *entry*, resident at *src_index* of its source's list,
        from both lists."""
        i = self.pos(entry) - 1
        del self._entries[i]
        if i < self.low_water:
            self.low_water = i
        x = entry[2]
        lst = self._src[x]
        del lst[src_index]
        if not lst:
            del self._src[x]

    def _evict_above(self, x: int, src_index: int) -> Optional[Entry]:
        """Remove and return the closest non-SP entry for source *x*
        strictly above per-source index *src_index*, if any.  Scans only
        the per-source list (same victim as the global closest-above
        scan: the per-source subsequence preserves global order)."""
        lst = self._src[x]
        sp = self.flagged.get(x)
        for j in range(src_index + 1, len(lst)):
            e = lst[j]
            if e is not sp:
                self._unlink(e, j)
                return e
        return None

    def _check_sorted(self) -> None:
        """Paranoid-mode structural audit of both lists and the
        holders."""
        es = self._entries
        assert all(es[i][:3] <= es[i + 1][:3]
                   for i in range(len(es) - 1)), "entries unsorted"
        subs: Dict[int, List[Entry]] = {}
        for e in es:
            subs.setdefault(e[2], []).append(e)
        assert subs.keys() == self._src.keys(), "per-source list desync"
        for x, lst in self._src.items():
            sub = subs[x]
            assert len(lst) == len(sub) and all(
                a is b for a, b in zip(lst, sub)), \
                f"per-source list desync for source {x}"
        for x, e in self.flagged.items():
            assert any(z is e for z in self._src.get(x, ())), \
                f"flag-d* holder of source {x} is not on the list"

    # -- mutation ----------------------------------------------------------

    def insert(self, entry: Entry,
               budget: Optional[int] = None) -> Tuple[int, Optional[Entry]]:
        """The paper's ``Insert(Z)``.

        Inserts *entry* in sorted order; if the entry count for its source
        then exceeds *budget* (Invariant 2's per-source allowance,
        ``sqrt(Delta h / k) + 1``), removes the closest non-SP entry for
        the same source above the insertion point.  Returns the 1-based
        insertion position and the removed entry (or ``None``).

        Two reconstruction notes (DESIGN.md section 6 has the full
        discussion; the conference pseudo-code is ambiguous here and the
        literal closest-above-on-every-insert reading is refuted by the
        paper's own Figure 1 instance):

        * **Budget-triggered eviction.**  Eviction exists to enforce
          Invariant 2; evicting below the budget discards (d, l)-Pareto
          path information (larger d, fewer hops) that downstream nodes
          still need for their h-hop answers.  With ``budget=None`` every
          insert evicts (the literal reading, kept for the ablation
          benchmark).
        * **Equal-sort-key ties** place the newcomer *above* existing
          entries (bisect_right): positions of resident entries never
          decrease (Lemma II.2) and a freshly derived entry sits
          at-or-above every entry derived before it, which is what the
          position monotonicity of Corollary II.8 -- and hence
          Invariant 1 -- needs when exact duplicate ``(kappa, d, x)``
          entries arrive via different parents.
        """
        i, j = self._link(entry)
        removed: Optional[Entry] = None
        x = entry[2]
        if budget is None or len(self._src[x]) > budget:
            removed = self._evict_above(x, j)
        if PARANOID:
            self._check_sorted()
        return i + 1, removed

    def quota_insert(self, kappa: float, d: int, l: int, x: int,
                     parent: Optional[int], nu: int, budget: Optional[int]
                     ) -> Optional[Tuple[Entry, int, Optional[Entry]]]:
        """Step 13 of Algorithm 1 for the candidate ``(kappa, d, l)``
        from source *x*, relayed by *parent*, whose send advertised
        *nu*: reject it when at least *nu* same-source entries sit at
        or below its key ``(kappa, d, x)`` (ties count as below, as in
        :meth:`count_for_source_below`), otherwise insert it with
        *budget*, exactly as :meth:`insert` does.  Returns ``None`` on
        a reject, else the new entry, its 1-based position and the
        evicted entry (or ``None``).

        The count reaches *nu* exactly when the source has at least
        *nu* entries and the *nu*-th smallest of their keys is at or
        below the candidate's, so the quota is one comparison (against
        a probe that sorts above every entry of the candidate's key);
        no entry is built for a reject."""
        lst = self._src.get(x)
        if lst is not None and 0 < nu <= len(lst):
            full = lst[nu - 1] < (kappa, d, x, _INF)
        else:
            full = nu < 1
        if PARANOID:
            naive = sum(1 for e in self._entries
                        if e[2] == x and e[:3] <= (kappa, d, x))
            assert full == (naive >= nu), \
                f"quota_insert mismatch: one-key test {full}, " \
                f"linear count {naive} against nu {nu}"
        if full:
            return None
        z = (kappa, d, x, l, parent)
        pos, removed = self.insert(z, budget)
        return z, pos, removed

    def insert_sp(self, entry: Entry) -> int:
        """Insert a new flag-d* (shortest-path) entry, without eviction,
        and make it its source's holder (which demotes the previous one).

        The caller then calls :meth:`evict_over_budget` -- so the old
        entry is evictable exactly when the Invariant 2 budget demands
        it, and survives as a (d, l)-Pareto point otherwise (the Figure
        1 requirement).  Returns the 1-based position.
        """
        i, _ = self._link(entry)
        self.flagged[entry[2]] = entry
        if PARANOID:
            self._check_sorted()
        return i + 1

    def evict_over_budget(self, entry: Entry, budget: int) -> Optional[Entry]:
        """If the entry count for *entry*'s source exceeds *budget*,
        remove the closest non-SP same-source entry above *entry* (if
        any).  Returns the victim or ``None``."""
        lst = self._src.get(entry[2])
        if lst is None or len(lst) <= budget:
            return None
        return self._evict_above(entry[2], _find(lst, entry))

    def remove(self, entry: Entry) -> None:
        """Remove *entry* (by identity); a removed holder leaves its
        source without one."""
        x = entry[2]
        lst = self._src.get(x)
        if lst is None:
            raise ValueError("entry not on list")
        self._unlink(entry, _find(lst, entry))
        if self.flagged.get(x) is entry:
            del self.flagged[x]

    # -- send schedule -----------------------------------------------------
    #
    # ``ceil(kappa_i + i)`` is strictly increasing in the 1-based
    # position i: for i < j, ``kappa_j + j >= kappa_i + i + (j - i)``
    # (keys sorted, positions consecutive), so the ceils differ by at
    # least ``j - i``.  Hence the entry firing in round r -- if any --
    # is unique and binary-searchable, and the earliest future fire is
    # at the first position whose scheduled round exceeds r.

    def fire_at(self, r: int) -> Optional[Entry]:
        """The entry scheduled to be sent in round *r*, i.e. with
        ``ceil(kappa + pos) == r``; ``None`` if no entry fires.

        O(log n) bisection over the strictly increasing schedule (the
        CONGEST 1-message constraint is self-enforcing for this
        schedule, DESIGN.md sec. 6 -- paranoid mode re-asserts it with
        the reference linear scan).
        """
        prof = _HOT.session
        t0 = _perf() if prof is not None else 0.0
        ceil = _ceil  # profiled hot loop: avoid attribute lookups
        es = self._entries
        lo, hi = 0, len(es)
        while lo < hi:
            mid = (lo + hi) >> 1
            if ceil(es[mid][0] + mid + 1) < r:
                lo = mid + 1
            else:
                hi = mid
        hit: Optional[Entry] = None
        if lo < len(es) and ceil(es[lo][0] + lo + 1) == r:
            hit = es[lo]
        if PARANOID:
            linear: Optional[Entry] = None
            pos = 0
            for e in es:
                pos += 1
                if ceil(e[0] + pos) == r:
                    if linear is not None:
                        raise AssertionError(
                            f"two entries scheduled in round {r}: "
                            f"{linear!r} and {e!r}")
                    linear = e
            assert linear is hit, \
                f"fire_at kernel mismatch in round {r}: " \
                f"bisect {hit!r}, linear {linear!r}"
        if prof is not None:
            prof.record("node_list.fire_at", _perf() - t0)
        return hit

    def next_fire_after(self, r: int) -> Optional[int]:
        """Earliest round > *r* in which some entry fires under the
        current positions, or ``None``.  O(log n) bisection."""
        prof = _HOT.session
        t0 = _perf() if prof is not None else 0.0
        ceil = _ceil
        es = self._entries
        lo, hi = 0, len(es)
        while lo < hi:
            mid = (lo + hi) >> 1
            if ceil(es[mid][0] + mid + 1) <= r:
                lo = mid + 1
            else:
                hi = mid
        best: Optional[int] = None
        if lo < len(es):
            best = ceil(es[lo][0] + lo + 1)
        if PARANOID:
            naive: Optional[int] = None
            pos = 0
            for e in es:
                pos += 1
                rr = ceil(e[0] + pos)
                if rr > r and (naive is None or rr < naive):
                    naive = rr
            assert naive == best, \
                f"next_fire_after kernel mismatch after round {r}: " \
                f"bisect {best}, linear {naive}"
        if prof is not None:
            prof.record("node_list.next_fire_after", _perf() - t0)
        return best


class ReferenceNodeList:
    """The naive linear-scan ``list_v``, kept as (a) the
    differential-testing reference the kernels are pinned against and
    (b) the paranoid-mode semantics.  Same API and observable behaviour
    as :class:`NodeList` on the same tuples, with no per-source lists:
    every query is an O(n) scan, and an entry is found by identity."""

    __slots__ = ("_entries", "flagged")

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        self.flagged: Dict[int, Entry] = {}

    # -- basic container --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def entries(self) -> List[Entry]:
        return list(self._entries)

    def pos(self, entry: Entry) -> int:
        for i, e in enumerate(self._entries, 1):
            if e is entry:
                return i
        raise ValueError("entry not on list")

    # -- paper quantities --------------------------------------------------

    def nu_of(self, entry: Entry) -> int:
        i = self.pos(entry)
        return sum(1 for e in self._entries[:i] if e[2] == entry[2])

    def count_for_source_below(self, x: int, key: _Key) -> int:
        return sum(1 for e in self._entries
                   if e[2] == x and e[:3] <= key)

    def count_for_source(self, x: int) -> int:
        return sum(1 for e in self._entries if e[2] == x)

    def max_entries_any_source(self) -> int:
        counts: Dict[int, int] = {}
        for e in self._entries:
            counts[e[2]] = counts.get(e[2], 0) + 1
        return max(counts.values(), default=0)

    # -- mutation ----------------------------------------------------------

    def _place(self, entry: Entry) -> int:
        """Insert *entry* above every entry whose key is at or below
        its own; returns the 0-based index."""
        key = entry[:3]
        i = 0
        while i < len(self._entries) and self._entries[i][:3] <= key:
            i += 1
        self._entries.insert(i, entry)
        return i

    def _evict_above(self, i: int, x: int) -> Optional[Entry]:
        sp = self.flagged.get(x)
        for j in range(i + 1, len(self._entries)):
            e = self._entries[j]
            if e[2] == x and e is not sp:
                del self._entries[j]
                return e
        return None

    def insert(self, entry: Entry,
               budget: Optional[int] = None) -> Tuple[int, Optional[Entry]]:
        i = self._place(entry)
        removed: Optional[Entry] = None
        if budget is None or self.count_for_source(entry[2]) > budget:
            removed = self._evict_above(i, entry[2])
        return i + 1, removed

    def quota_insert(self, kappa: float, d: int, l: int, x: int,
                     parent: Optional[int], nu: int, budget: Optional[int]
                     ) -> Optional[Tuple[Entry, int, Optional[Entry]]]:
        if self.count_for_source_below(x, (kappa, d, x)) >= nu:
            return None
        z = (kappa, d, x, l, parent)
        pos, removed = self.insert(z, budget)
        return z, pos, removed

    def insert_sp(self, entry: Entry) -> int:
        i = self._place(entry)
        self.flagged[entry[2]] = entry
        return i + 1

    def evict_over_budget(self, entry: Entry, budget: int) -> Optional[Entry]:
        if self.count_for_source(entry[2]) <= budget:
            return None
        return self._evict_above(self.pos(entry) - 1, entry[2])

    def remove(self, entry: Entry) -> None:
        del self._entries[self.pos(entry) - 1]
        if self.flagged.get(entry[2]) is entry:
            del self.flagged[entry[2]]

    # -- send schedule -----------------------------------------------------

    def fire_at(self, r: int) -> Optional[Entry]:
        """Linear scan; asserts the at-most-one-send property."""
        prof = _HOT.session
        t0 = _perf() if prof is not None else 0.0
        ceil = _ceil
        hit: Optional[Entry] = None
        pos = 0
        for e in self._entries:
            pos += 1
            if ceil(e[0] + pos) == r:
                if hit is not None:
                    raise AssertionError(
                        f"two entries scheduled in round {r}: {hit!r} and {e!r}")
                hit = e
        if prof is not None:
            prof.record("node_list.fire_at", _perf() - t0)
        return hit

    def next_fire_after(self, r: int) -> Optional[int]:
        prof = _HOT.session
        t0 = _perf() if prof is not None else 0.0
        ceil = _ceil
        best: Optional[int] = None
        pos = 0
        for e in self._entries:
            pos += 1
            rr = ceil(e[0] + pos)
            if rr > r and (best is None or rr < best):
                best = rr
        if prof is not None:
            prof.record("node_list.next_fire_after", _perf() - t0)
        return best
