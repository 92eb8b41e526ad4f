"""The per-node entry list ``list_v`` of Algorithm 1 -- indexed kernels.

``list_v`` is kept sorted by ``(kappa, d, x)``.  Positions are 1-based
("pos(Z) gives the number of elements at or below Z"), and ``Z.nu`` is the
number of entries *for Z's source* at or below Z.  The ``insert``
procedure implements the paper's ``Insert(Z)``: sorted insertion followed
by removal of the closest non-SP entry for the same source *above* the
insertion point, if one exists (Steps 1-4 / Observation II.3).

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
    maintaining one short sorted list per source gives O(1)
    ``count_for_source``/``nu_of``, O(log s) ``count_for_source_below``,
    an O(log n + log s) ``pos`` even under duplicate keys (the identity
    index lives on the entry itself), and an incrementally maintained
    ``max_entries_any_source`` (a count-of-counts histogram), so the
    Invariant 2 monitor no longer recounts the list every round.

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
from bisect import bisect_left, bisect_right
from time import perf_counter as _perf
from typing import Dict, Iterator, List, Optional, Tuple

from math import ceil as _ceil

from ..obs.profiling import HOT as _HOT
from .entries import Entry

_Key = Tuple[float, int, int]

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


class NodeList:
    """Sorted entry list with the paper's position/nu/eviction semantics
    (kernel implementation -- see the module docstring)."""

    __slots__ = ("_entries", "_keys", "_src_entries", "_src_keys",
                 "_count_freq", "_max_count")

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        self._keys: List[_Key] = []
        #: Per-source entries, in global list order (an order-preserving
        #: subsequence of ``_entries``).
        self._src_entries: Dict[int, List[Entry]] = {}
        #: Parallel per-source sort keys (sorted -- bisect targets).
        self._src_keys: Dict[int, List[_Key]] = {}
        #: count-of-counts histogram: {per-source count: #sources}.
        self._count_freq: Dict[int, int] = {}
        self._max_count = 0

    # -- basic container --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def entries(self) -> List[Entry]:
        return list(self._entries)

    def pos(self, entry: Entry) -> int:
        """1-based position of *entry* (the paper's ``pos_v(Z)``).

        O(log n + log s) even with duplicate ``(kappa, d, x)`` keys: the
        global bisect locates the equal-key run, and the entry's rank
        inside the run comes from its identity index in the per-source
        list (equal keys always share the source, so the run *is* a
        per-source segment).
        """
        j = entry._li
        lst = self._src_entries.get(entry.x)
        if j is None or lst is None or j >= len(lst) or lst[j] is not entry:
            raise ValueError("entry not on list")
        key = entry.sort_key
        base = bisect_left(self._keys, key)
        run_rank = j - bisect_left(self._src_keys[entry.x], key)
        p = base + run_rank + 1
        if PARANOID:
            self._check_sorted()
            i = bisect_left(self._keys, key)
            while i < len(self._entries) and self._entries[i] is not entry:
                i += 1
            assert i < len(self._entries) and i + 1 == p, \
                f"pos kernel mismatch: indexed {p}, linear {i + 1}"
        return p

    # -- paper quantities --------------------------------------------------

    def nu_of(self, entry: Entry) -> int:
        """``Z.nu``: entries for source ``Z.x`` at or below Z (inclusive).
        O(1): the per-source list preserves global order, so nu is the
        entry's per-source index + 1."""
        j = entry._li
        lst = self._src_entries.get(entry.x)
        if j is None or lst is None or j >= len(lst) or lst[j] is not entry:
            raise ValueError("entry not on list")
        if PARANOID:
            i = self.pos(entry) - 1
            naive = sum(1 for e in self._entries[:i + 1] if e.x == entry.x)
            assert naive == j + 1, \
                f"nu_of kernel mismatch: indexed {j + 1}, linear {naive}"
        return j + 1

    def count_for_source_below(self, x: int, sort_key: _Key) -> int:
        """Number of entries for source *x* with key at most *sort_key*
        (the Step 13 gating count), O(log s).

        Entries whose sort key ties the candidate's count as "below":
        a newly inserted entry goes *above* its equal-key twins (see
        :meth:`insert`), so this is exactly the number that would sit
        below it -- which is what Observation II.4's accounting
        ("at least nu- entries with key <= Z.kappa") requires.
        """
        ks = self._src_keys.get(x)
        c = bisect_right(ks, sort_key) if ks else 0
        if PARANOID:
            i = bisect_right(self._keys, sort_key)
            naive = sum(1 for e in self._entries[:i] if e.x == x)
            assert naive == c, \
                f"count_for_source_below mismatch: indexed {c}, linear {naive}"
        return c

    def count_for_source(self, x: int) -> int:
        lst = self._src_entries.get(x)
        return len(lst) if lst else 0

    def max_entries_any_source(self) -> int:
        """max over sources of the per-source entry count (Invariant 2).
        O(1): maintained incrementally by the mutation kernels."""
        if PARANOID:
            counts: Dict[int, int] = {}
            for e in self._entries:
                counts[e.x] = counts.get(e.x, 0) + 1
            naive = max(counts.values(), default=0)
            assert naive == self._max_count, \
                f"max_entries_any_source mismatch: " \
                f"indexed {self._max_count}, recount {naive}"
        return self._max_count

    # -- index maintenance -------------------------------------------------

    def _link(self, entry: Entry) -> int:
        """Add *entry* to the per-source index (newcomer above equal
        keys, mirroring the global bisect_right placement) and bump the
        count histogram.  Returns the entry's global insertion index."""
        key = entry.sort_key
        i = bisect_right(self._keys, key)
        self._entries.insert(i, entry)
        self._keys.insert(i, key)
        x = entry.x
        lst = self._src_entries.get(x)
        if lst is None:
            lst = self._src_entries[x] = []
            self._src_keys[x] = []
        ks = self._src_keys[x]
        c = len(lst)
        j = bisect_right(ks, key)
        lst.insert(j, entry)
        ks.insert(j, key)
        entry._li = j
        for t in range(j + 1, len(lst)):
            lst[t]._li = t
        freq = self._count_freq
        if c:
            freq[c] -= 1
        freq[c + 1] = freq.get(c + 1, 0) + 1
        if c + 1 > self._max_count:
            self._max_count = c + 1
        return i

    def _unlink(self, entry: Entry, global_index: int) -> None:
        """Remove *entry* (resident at *global_index*) from all indexes."""
        del self._entries[global_index]
        del self._keys[global_index]
        x = entry.x
        lst = self._src_entries[x]
        ks = self._src_keys[x]
        j = entry._li
        del lst[j]
        del ks[j]
        entry._li = None
        for t in range(j, len(lst)):
            lst[t]._li = t
        c = len(lst) + 1
        freq = self._count_freq
        freq[c] -= 1
        if c > 1:
            freq[c - 1] = freq.get(c - 1, 0) + 1
        else:
            del self._src_entries[x]
            del self._src_keys[x]
        if self._max_count == c and freq.get(c, 0) == 0:
            # only a single-step drop is possible: the demoted source now
            # sits at c - 1 (or the structure is empty).
            self._max_count = c - 1

    def _evict_above(self, x: int, src_index: int) -> Optional[Entry]:
        """Remove and return the closest non-SP entry for source *x*
        strictly above per-source index *src_index*, if any.  Scans only
        the per-source list (same victim as the global closest-above
        scan: the per-source subsequence preserves global order)."""
        lst = self._src_entries.get(x)
        if not lst:
            return None
        for j in range(src_index + 1, len(lst)):
            e = lst[j]
            if not e.flag_sp:
                self._unlink(e, self.pos(e) - 1)
                return e
        return None

    def _check_sorted(self) -> None:
        """Paranoid-mode structural audit of every index."""
        assert all(self._keys[i] <= self._keys[i + 1]
                   for i in range(len(self._keys) - 1)), "keys unsorted"
        assert [e.sort_key for e in self._entries] == self._keys, \
            "entry/key desync"
        for x, lst in self._src_entries.items():
            sub = [e for e in self._entries if e.x == x]
            assert lst == sub, f"per-source index desync for source {x}"
            assert self._src_keys[x] == [e.sort_key for e in lst], \
                f"per-source key desync for source {x}"
            assert all(e._li == t for t, e in enumerate(lst)), \
                f"identity index desync for source {x}"

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
        i = self._link(entry)
        removed: Optional[Entry] = None
        if budget is None or len(self._src_entries[entry.x]) > budget:
            removed = self._evict_above(entry.x, entry._li)
        if PARANOID:
            self._check_sorted()
        return i + 1, removed

    def insert_sp(self, entry: Entry) -> int:
        """Insert a new flag-d* (shortest-path) entry, without eviction.

        The caller demotes the previous SP entry afterwards and then calls
        :meth:`evict_over_budget` -- so the old entry is evictable exactly
        when the Invariant 2 budget demands it, and survives as a
        (d, l)-Pareto point otherwise (the Figure 1 requirement).
        Returns the 1-based position.
        """
        i = self._link(entry)
        if PARANOID:
            self._check_sorted()
        return i + 1

    def evict_over_budget(self, entry: Entry, budget: int) -> Optional[Entry]:
        """If the entry count for ``entry.x`` exceeds *budget*, remove the
        closest non-SP same-source entry above *entry* (if any).  Returns
        the victim or ``None``."""
        if self.count_for_source(entry.x) <= budget:
            return None
        if entry._li is None:
            raise ValueError("entry not on list")
        return self._evict_above(entry.x, entry._li)

    def remove(self, entry: Entry) -> None:
        self._unlink(entry, self.pos(entry) - 1)

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
        keys = self._keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) >> 1
            if ceil(keys[mid][0] + mid + 1) < r:
                lo = mid + 1
            else:
                hi = mid
        hit: Optional[Entry] = None
        if lo < len(keys) and ceil(keys[lo][0] + lo + 1) == r:
            hit = self._entries[lo]
        if PARANOID:
            linear: Optional[Entry] = None
            pos = 0
            for e in self._entries:
                pos += 1
                if ceil(e.kappa + pos) == r:
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
        keys = self._keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) >> 1
            if ceil(keys[mid][0] + mid + 1) <= r:
                lo = mid + 1
            else:
                hi = mid
        best: Optional[int] = None
        if lo < len(keys):
            best = ceil(keys[lo][0] + lo + 1)
        if PARANOID:
            naive: Optional[int] = None
            pos = 0
            for e in self._entries:
                pos += 1
                rr = ceil(e.kappa + pos)
                if rr > r and (naive is None or rr < naive):
                    naive = rr
            assert naive == best, \
                f"next_fire_after kernel mismatch after round {r}: " \
                f"bisect {best}, linear {naive}"
        if prof is not None:
            prof.record("node_list.next_fire_after", _perf() - t0)
        return best


class ReferenceNodeList:
    """The naive linear-scan ``list_v`` -- the pre-kernel implementation,
    kept verbatim as (a) the differential-testing reference the kernels
    are pinned against and (b) the paranoid-mode semantics.  Same API
    and observable behaviour as :class:`NodeList`; every query is
    O(n)."""

    __slots__ = ("_entries", "_keys")

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        self._keys: List[_Key] = []

    # -- basic container --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def entries(self) -> List[Entry]:
        return list(self._entries)

    def pos(self, entry: Entry) -> int:
        """1-based position of *entry*: bisect to the equal-key run, then
        walk it by identity (O(n) worst case under duplicate keys -- the
        degradation the kernel's identity index removes)."""
        i = bisect_left(self._keys, entry.sort_key)
        while i < len(self._entries) and self._entries[i] is not entry:
            i += 1
        if i == len(self._entries):
            raise ValueError("entry not on list")
        return i + 1

    # -- paper quantities --------------------------------------------------

    def nu_of(self, entry: Entry) -> int:
        i = self.pos(entry) - 1
        return sum(1 for e in self._entries[:i + 1] if e.x == entry.x)

    def count_for_source_below(self, x: int, sort_key: _Key) -> int:
        i = bisect_right(self._keys, sort_key)
        return sum(1 for e in self._entries[:i] if e.x == x)

    def count_for_source(self, x: int) -> int:
        return sum(1 for e in self._entries if e.x == x)

    def max_entries_any_source(self) -> int:
        counts: Dict[int, int] = {}
        top = 0
        for e in self._entries:
            c = counts.get(e.x, 0) + 1
            counts[e.x] = c
            if c > top:
                top = c
        return top

    # -- mutation ----------------------------------------------------------

    def insert(self, entry: Entry,
               budget: Optional[int] = None) -> Tuple[int, Optional[Entry]]:
        i = bisect_right(self._keys, entry.sort_key)
        self._entries.insert(i, entry)
        self._keys.insert(i, entry.sort_key)
        removed: Optional[Entry] = None
        if budget is None or self.count_for_source(entry.x) > budget:
            for j in range(i + 1, len(self._entries)):
                e = self._entries[j]
                if e.x == entry.x and not e.flag_sp:
                    removed = e
                    del self._entries[j]
                    del self._keys[j]
                    break
        return i + 1, removed

    def insert_sp(self, entry: Entry) -> int:
        i = bisect_right(self._keys, entry.sort_key)
        self._entries.insert(i, entry)
        self._keys.insert(i, entry.sort_key)
        return i + 1

    def evict_over_budget(self, entry: Entry, budget: int) -> Optional[Entry]:
        if self.count_for_source(entry.x) <= budget:
            return None
        i = self.pos(entry) - 1
        for j in range(i + 1, len(self._entries)):
            e = self._entries[j]
            if e.x == entry.x and not e.flag_sp:
                del self._entries[j]
                del self._keys[j]
                return e
        return None

    def remove(self, entry: Entry) -> None:
        i = self.pos(entry) - 1
        del self._entries[i]
        del self._keys[i]

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
            if ceil(e.kappa + pos) == r:
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
            rr = ceil(e.kappa + pos)
            if rr > r and (best is None or rr < best):
                best = rr
        if prof is not None:
            prof.record("node_list.next_fire_after", _perf() - t0)
        return best

