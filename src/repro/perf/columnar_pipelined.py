"""Columnar bulk kernel for the pipelined (h, k)-SSP program family.

This module vectorizes the paper's actual algorithm: where the
relaxation kernel (:mod:`repro.perf.columnar`) covers the Bellman-Ford
baselines, :class:`_PipelinedKernel` executes
:class:`~repro.core.pipelined.PipelinedSSPProgram` networks -- the hot
path behind every Table I experiment and every serve-layer oracle
build -- without per-message Python objects on the delivery path.

What is bulk and what is not
----------------------------
The kernel owns no copy of ``list_v``: it works on the programs' own
:class:`~repro.core.node_list.NodeList` objects, whose flag-d* holders
are each node's bests, and keeps only the bulk work around them.

* **Step 1 (send rule)** ``ceil(kappa + pos) == r`` runs as rank
  arithmetic on each sorted entry list (an entry is the tuple
  ``(kappa, d, x, l, parent)``, so the list is its own key column),
  with the firing *index* kept next to the scheduled round (see
  "Scheduling" below), so firing is one index into the entry list and
  ``nu`` is ``NodeList.nu_of`` of the fired entry;
* **Step 2 (deliveries)** run through the CSR gather over the
  out-arcs the program broadcasts on (the basic algorithm needs no
  bidirectional channels, Section I-B): one flat
  ``(src, dst, w)`` edge batch per round, candidate ``d' = d + w``,
  ``l' = l + 1`` and ``kappa' = d' * gamma + l'`` computed for the
  whole batch as numpy vector ops, and one send count per sender
  (a broadcast puts the same count on each of its out-arcs, which the
  flush credits once per run) -- no Envelope, payload tuple, or
  Counter update per message;
* **Steps 8-13 (flag-d* promotion, the Step 13 quota, Insert's
  eviction)** are not reimplemented here: every arrival the reject
  pass keeps goes through
  :meth:`~repro.core.pipelined.PipelinedSSPProgram.fold`, the same
  method the per-message ``on_receive`` calls, which also asserts
  Invariant 1 on every insert.

A round touches a program only to fire its entry and to fold its kept
arrivals: a program's whole state is its list and its last
output-relevant promotion round, and those two steps are what change
them.

The **order** of arrivals within a round is semantic (the quota gate
and the flag-d* tie-breaks read list state mutated by earlier arrivals
of the same round), so per-destination candidates are folded
sequentially in ascending-source order -- bit-identically to the
reference's sorted inbox -- while everything around that fold
(scheduling, expansion, key computation, accounting) is batched.

Reject-first rounds
-------------------
Most arrivals change nothing: on dense APSP instances ~85% are neither
a flag-d* promotion nor admitted by the Step 13 quota.  Each round
therefore runs one vectorized *reject pass* before the fold.
It reads a per-(node, source) snapshot -- the flag-d* holder's
``(d, l, parent)``, the per-source entry count and the largest and
second-largest per-source keys ``(kappa, d)``, one float64 row of
eight values per cell (:func:`_snap_row`) -- and drops every delivery
that is not a promotion against the snapshot best and either has a
``nu`` of at most the count and a key at or above the largest key, or
a ``nu`` of at most the count minus one and a key at or above the
second-largest: the fold would reject it anyway (the comment in
:meth:`_gather` proves why a snapshot from any earlier moment of the
run is safe).
The fold runs over what the pass keeps, and the rows of the cells a
round changed are rewritten afterwards.  Accounting is taken before
the pass, on every delivery.

Small rounds
------------
The gather and the reject pass cost a fixed 60-100 us of numpy calls
per round, whatever the round carries.  A round with fewer than
:data:`SMALL_ROUND_DELIVERIES` deliveries -- the send phase sums its
senders' out-degrees as it collects them -- instead expands its
deliveries from the Python CSR lists and folds every one
(:meth:`_PipelinedKernel._gather_small`); it skips the reject pass,
which only drops arrivals the fold rejects anyway.  The send counts,
the fold, the snapshot refresh and the rescheduling are the same code
on both paths.

Scheduling touches only what moved
----------------------------------
The kernel keeps, for every node, the index of the first entry due
after the last processed round, and the round that entry fires in.
The schedule ``ceil(kappa_i + i + 1)`` strictly increases in ``i``, so
a sender's index moves one past the entry it fired.  A receiver whose
list changed resumes from its index too, without a search: each
``NodeList`` keeps a low-water mark, the lowest index an insert or
removal touched since the kernel last reset it, and when the mark is at
or above the node's index the entry now sitting there is still the
first one due (Invariant 1 puts every insert of round r at a position
due after r; :func:`_resume_index` gives the whole argument).  Only a
removal below the index -- ``fold``'s parent-id twin removal -- makes
the kernel search, and then only from the mark.  Every other node keeps
its slot.  The only full bisection
(:func:`repro.core.keys.first_due`) is the one per node at the start of
``run()``.

Exactness contract
------------------
The programs are the only state: ``fold`` and the send phase change
them in place, so between (and after an exception inside) ``run()``
calls outputs, round numbers, resumption, checkpoints and post-mortems
read exactly what the per-message backends would have left behind.
``tests/backend_conformance.py`` pins the equality differentially
(including per-program state and deliberate-corruption runs via the
``send-rank-off-by-one`` / ``nu-off-by-one`` /
``reject-filter-off-by-one`` / ``reject-second-key-off-by-one`` modes
this module honors).

Keys are recomputed as the same single multiply-add on ``(d, l)`` as
the scalar path -- a float64 vector op, bit-identical for the integer
ranges the CONGEST word model admits -- so list orders agree across
backends to the last ulp.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import ceil as _ceil, inf as _INF
from operator import itemgetter
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.keys import first_due
from ..core.node_list import UNTOUCHED
from ..obs.profiling import HOT as _HOT
from .fast_network import RoundLimitExceeded
from . import columnar as _cmod

#: Words per pipelined payload ``(d, l, x, flag_sp, nu)`` -- five
#: scalars (repro.congest.message.payload_words).
_PAYLOAD_WORDS = 5

#: Reject-pass snapshot row of a (node, source) cell without entries:
#: no holder, so every delivery to it is kept (each one promotes).
_EMPTY_ROW = (_INF, _INF, -1.0, 0.0, -_INF, -_INF, _INF, _INF)

#: The second-largest key ``(kappa, d)`` of a cell with one entry.
_NO_KEY = (_INF, _INF)

_DESTINATION = itemgetter(0)

#: Below this many deliveries a round takes the small path (module
#: docstring); the measured crossover is in docs/PERFORMANCE.md.
SMALL_ROUND_DELIVERIES = 32


def _snap_row(nl, x: int) -> Tuple[float, ...]:
    """The reject pass's snapshot row of source *x* on list *nl*,
    which holds entries for it: ``(best d, best l, best parent or -1,
    entry count, largest key kappa, largest key d, second-largest key
    kappa, second-largest key d)``, all read at one moment, the second
    key ``(inf, inf)`` below two entries.  The bests are the flag-d*
    holder's, which every source with entries has."""
    _kappa, d, _x, l, parent = nl.flagged[x]
    own = nl._src[x]
    top = own[-1]
    second = own[-2] if len(own) > 1 else _NO_KEY
    return (d, l, -1 if parent is None else parent, len(own),
            top[0], top[1], second[0], second[1])


def _resume_index(nl, first: int, r: int, pos_offset: int) -> int:
    """The first index of *nl*'s send schedule due after round *r*,
    given that *first* was that index before the inserts and removals
    since *nl*'s low-water mark was last reset; resets the mark.

    Entries below the mark kept their index and key.  When the mark is
    at or above *first*, every insert and removal happened at or above
    it, and whatever sits at *first* now is still due after *r*: an
    entry inserted there was (Invariant 1, which ``fold`` asserts on
    every insert), an insert only pushes entries up to later rounds,
    and a removal at index j pulls down an entry whose key is at least
    the removed one's.  Otherwise the search starts at the mark, below
    which everything is due by *r*.
    """
    m = nl.low_water
    nl.low_water = UNTOUCHED
    if m >= first:
        return first
    return first_due(nl._entries, r, lo=m, pos_offset=pos_offset)


class _PipelinedKernel:
    """Columnar executor for networks whose every program is a
    :class:`~repro.core.pipelined.PipelinedSSPProgram` (see the module
    docstring for the column layout and the exactness contract)."""

    @staticmethod
    def matches(net) -> bool:
        """Static eligibility (memoized by the network): every program
        is a plain ``PipelinedSSPProgram`` with uniform parameters and
        no per-program instrumentation, and the graph is bulk-safe.

        * uniform ``sources`` / ``h`` / ``gamma`` / ``cutoff_round`` /
          ``budget`` -- the kernel hoists them once; mixed-parameter
          networks (never produced by the entry points) take the
          generic loop;
        * ``trace is None``: a trace observes per-send events the bulk
          path never materializes (paranoid mode is checked per run,
          by :meth:`revalidate`);
        * ``max_message_words >= 5``: a smaller budget must raise the
          reference's ``MessageSizeError``, which the generic loop
          does;
        * the graph facts of :func:`repro.perf.columnar.edges_bulk_safe`
          (``int`` weights, duplicate-free out-neighbours, so channel
          enforcement can never trigger on the bulk path, and path sums
          exact in float64, where the reject pass compares distances).
        """
        from ..core.pipelined import PipelinedSSPProgram
        programs = net.programs
        if not programs or type(programs[0]) is not PipelinedSSPProgram:
            return False
        if net.max_message_words < _PAYLOAD_WORDS:
            return False
        p0 = programs[0]
        sources0 = tuple(p0.sources)
        params0 = (p0.h, p0.gamma, p0.cutoff_round, p0.budget)
        for v, p in enumerate(programs):
            if (type(p) is not PipelinedSSPProgram or p.v != v
                    or tuple(p.sources) != sources0
                    or (p.h, p.gamma, p.cutoff_round, p.budget) != params0
                    or p.trace is not None):
                return False
        return _cmod.edges_bulk_safe(net)

    def revalidate(self, net) -> bool:
        """Per-run dynamic eligibility on the memoized kernel: paranoid
        mode may have been toggled since the static scan (it re-checks
        ``fire_at`` / ``next_fire_after`` against the linear scan, and
        the kernel's own schedule bypasses both)."""
        from ..core import node_list as _node_list
        return not _node_list.PARANOID

    def __init__(self, net) -> None:
        self.n = net.n
        p0 = net.programs[0]
        self.gamma: float = p0.gamma
        self.cutoff: Optional[int] = p0.cutoff_round
        #: Each served source's column in the snapshot rows (cell
        #: ``v * k + xi``; -1 for non-sources, never a payload x).
        sources = tuple(dict.fromkeys(p0.sources))
        self.k = len(sources)
        self._xi = [-1] * self.n
        for xi, x in enumerate(sources):
            self._xi[x] = xi
        # CSR of the out-arcs every send is broadcast over, node ranges
        # in increasing node order.  Python lists where a Python loop
        # reads them per element, numpy for the round.
        indptr = [0]
        heads: List[int] = []
        weights: List[int] = []
        for ctx in net.contexts:
            for u, w in ctx.out_edges:
                heads.append(u)
                weights.append(w)
            indptr.append(len(heads))
        self._indptr = indptr
        self._heads = heads
        self._weights = weights
        self._np_indptr = np.asarray(indptr, dtype=np.int64)
        self._np_heads = np.asarray(heads, dtype=np.int64)
        self._np_weights = np.asarray(weights, dtype=np.int64)
        self._np_xi = np.asarray(self._xi, dtype=np.int64)
        #: Per-node send counts of the current run, flushed to the
        #: RunMetrics channel Counter once per run (columnar._flush).
        self._sends = [0] * self.n

    # -- per-run state -----------------------------------------------------

    def _load(self, programs) -> None:
        """Bind the programs' lists and ``fold`` methods for the run and
        build the reject pass's snapshot rows (one per (node, source)
        cell ``v * k + xi``, see :func:`_snap_row`)."""
        self._folds = [p.fold for p in programs]
        self._lists = lists = [p.list_v for p in programs]
        k, xi = self.k, self._xi
        cells = []
        rows = []
        for v, nl in enumerate(lists):
            nl.low_water = UNTOUCHED
            for x in nl._src:
                cells.append(v * k + xi[x])
                rows.append(_snap_row(nl, x))
        snap = np.empty((self.n * k, len(_EMPTY_ROW)))
        snap[:] = _EMPTY_ROW
        if cells:
            snap[cells] = rows
        self._snap = snap

    # -- the round loop ----------------------------------------------------

    def run(self, net, max_rounds: int) -> Any:
        metrics = net.metrics
        registry = net.registry
        profile = _HOT.session
        timed = registry is not None or profile is not None
        round_hist = None if registry is None else registry.histogram(
            "congest.round_wall_s", scale=1e-6)
        if not net._started:
            contexts = net.contexts
            for v, p in enumerate(net.programs):
                p.on_start(contexts[v])
            net._started = True

        self._load(net.programs)
        n = self.n
        lists = self._lists
        node_sends = metrics.node_sends
        sends = self._sends
        indptr = self._indptr
        small = SMALL_ROUND_DELIVERIES
        nu_pad = 1 if _cmod._CORRUPTION == "nu-off-by-one" else 0
        pos_off = 0 if _cmod._CORRUPTION == "send-rank-off-by-one" else 1
        cutoff = self.cutoff
        ceil = _ceil  # hot loop: avoid attribute/global lookups

        # firei[v] is, for every node, the index of the first entry due
        # after the last processed round; sched[v] is the round it
        # fires in, or None when the schedule is exhausted or past the
        # cutoff.
        prev_r = net._round
        firei = [first_due(nl._entries, prev_r, pos_offset=pos_off)
                 for nl in lists]
        sched: List[Optional[int]] = [None] * n
        heap: List[Tuple[int, int]] = []
        for v in range(n):
            i, es = firei[v], lists[v]._entries
            if i < len(es):
                nr = ceil(es[i][0] + i + pos_off)
                if cutoff is None or nr <= cutoff:
                    sched[v] = nr
                    heap.append((nr, v))
        heapify(heap)

        msg_count = 0
        try:
            while True:
                while heap and sched[heap[0][1]] != heap[0][0]:
                    heappop(heap)  # lazily deleted (rescheduled) entry
                if not heap:
                    break
                r = heap[0][0]
                if r > max_rounds:
                    _cmod._flush(self, metrics, msg_count, _PAYLOAD_WORDS)
                    msg_count = 0
                    raise RoundLimitExceeded(
                        f"no quiescence by round {max_rounds}; "
                        f"next scheduled activity at round {r}",
                        net._post_mortem("round limit exceeded",
                                         max_rounds, list(sched)))
                if r > prev_r + 1:
                    metrics.skipped_rounds += r - prev_r - 1
                prev_r = r
                net._round = r
                if timed:
                    t_round = _perf()

                # Step 1: collect the round's senders (ascending node id,
                # matching the event-driven loop's pop order), their
                # payload columns and the round's delivery count.  The
                # firing entry sits at firei[v], which then moves past
                # it: the schedule ceil(kappa_i + i + off) strictly
                # increases in i, so the next index is the first one due
                # after r.  flag_sp is not collected: no receiver reads
                # it.
                senders: List[int] = []
                send_d: List[int] = []
                send_l: List[int] = []
                send_x: List[int] = []
                send_nu: List[int] = []
                total = 0
                while heap and heap[0][0] == r:
                    _, v = heappop(heap)
                    if sched[v] != r:
                        continue
                    sched[v] = None
                    i = firei[v]
                    nl = lists[v]
                    e = nl._entries[i]
                    firei[v] = i + 1
                    senders.append(v)
                    send_d.append(e[1])
                    send_l.append(e[3])
                    send_x.append(e[2])
                    send_nu.append(nl.nu_of(e) + nu_pad)
                    degree = indptr[v + 1] - indptr[v]
                    if degree:
                        total += degree
                        node_sends[v] += 1
                        sends[v] += 1

                # Steps 2-13: deliver and fold per-destination arrivals
                # in ascending-source order.
                if total:
                    msg_count += total
                    metrics.active_rounds += 1
                    if r > metrics.rounds:
                        metrics.rounds = r
                    changed = self._round(
                        r, total < small,
                        senders, send_d, send_l, send_x, send_nu)
                else:
                    changed = {}

                # Reschedule what moved: the senders and the receivers
                # whose lists changed.  A changed list resumes its first
                # due index from its low-water mark (_resume_index);
                # every other node keeps its slot.
                for v in changed:
                    firei[v] = _resume_index(lists[v], firei[v], r, pos_off)
                for v in senders:
                    changed[v] = None
                for v in changed:
                    i, es = firei[v], lists[v]._entries
                    nr = None
                    if i < len(es):
                        nr = ceil(es[i][0] + i + pos_off)
                        if cutoff is not None and nr > cutoff:
                            nr = None
                    if nr != sched[v]:
                        sched[v] = nr
                        if nr is not None:
                            heappush(heap, (nr, v))

                if timed:
                    dt = _perf() - t_round
                    if round_hist is not None:
                        round_hist.observe(dt)
                    if profile is not None:
                        profile.record("columnar.pipelined.round", dt)
        finally:
            _cmod._flush(self, metrics, msg_count, _PAYLOAD_WORDS)
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                net._published = publish_run_metrics(
                    registry, metrics, state=net._published)
        return metrics

    # -- one round: delivery and fold --------------------------------------

    def _round(self, r, small, senders, send_d, send_l, send_x, send_nu):
        """Deliver round *r*'s sends (:meth:`_gather_small` if *small*,
        else :meth:`_gather`) and fold the arrivals, per destination in
        ascending-source order, through
        :meth:`~repro.core.pipelined.PipelinedSSPProgram.fold`.
        Returns the receivers whose lists changed, ascending, as a
        dict."""
        gather = self._gather_small if small else self._gather
        folds = self._folds
        changed: Dict[int, None] = {}
        # The changed cells' (node, source) pairs, keyed by cell.
        moved: Dict[int, Tuple[int, int]] = {}
        for u, y, d, l, kap, x, nu, c in gather(
                senders, send_d, send_l, send_x, send_nu):
            if folds[u](r, y, d, l, kap, x, nu):
                changed[u] = None
                moved[c] = (u, x)
        if moved:
            lists = self._lists
            self._snap[list(moved)] = [_snap_row(lists[u], x)
                                       for u, x in moved.values()]
        return changed

    def _gather(self, senders, send_d, send_l, send_x, send_nu):
        """The vectorized delivery: one CSR gather for the whole edge
        batch, candidate ``(d', l', kappa')`` as vector ops, then the
        reject pass against the snapshot.  Returns the kept arrivals as
        ``(u, y, d, l, kappa, x, nu, cell)`` rows in fold order."""
        sv = np.asarray(senders, dtype=np.int64)
        starts = self._np_indptr[sv]
        counts = self._np_indptr[sv + 1] - starts
        offs = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(counts)[:-1])), counts)
        edges = np.arange(int(counts.sum()), dtype=np.int64) + offs
        dsts = self._np_heads[edges]
        # Per-message sender-slot index (into the send_* columns).
        slots = np.repeat(np.arange(len(senders), dtype=np.int64), counts)
        ys = sv[slots]
        xs = np.asarray(send_x, dtype=np.int64)[slots]
        nus = np.asarray(send_nu, dtype=np.int64)[slots]
        cand_d = np.asarray(send_d, dtype=np.int64)[slots] \
            + self._np_weights[edges]
        cand_l = np.asarray(send_l, dtype=np.int64)[slots] + 1
        # The same multiply-add as the scalar key_of, vectorized --
        # bit-identical for word-sized integers.
        kappa = cand_d.astype(np.float64) * self.gamma + cand_l
        cells = dsts * self.k + self._np_xi[xs]

        # The reject pass.  Within one run(), every (node, source) cell
        # obeys two rules:
        #   * its best (d, l, parent) only falls in lexicographic order;
        #   * for any key K, the number of its entries <= K never drops:
        #     an insert at per-source index j only ever evicts an entry
        #     above j (strictly larger key), and the equal-key twin swap
        #     is net zero.
        # So a delivery that is no promotion against a snapshot best is
        # no promotion now; and if its key is at or above the snapshot's
        # largest key, at least `count` entries sit at or below it now,
        # so nu <= count fails the Step 13 quota now.  The second rule
        # holds at every rank: at or above the snapshot's second-largest
        # key, at least `count - 1` entries sit at or below it now, so
        # nu <= count - 1 fails the quota too.  Any snapshot from
        # earlier in the same run therefore never drops a delivery the
        # fold would keep; refresh frequency only changes how much is
        # dropped.  A row's values must come from one moment, so rows
        # are only ever written whole (_snap_row).
        bd, bl, bp, cnt, kk, kd, k2, d2 = self._snap[cells].T
        reject = (cand_d > bd) | ((cand_d == bd) & (
            (cand_l > bl) | ((cand_l == bl) & (ys >= bp))))
        at_top = (kappa > kk) | ((kappa == kk) & (cand_d >= kd))
        at_second = (kappa > k2) | ((kappa == k2) & (cand_d >= d2))
        pad = _cmod._CORRUPTION == "reject-filter-off-by-one"
        pad2 = _cmod._CORRUPTION == "reject-second-key-off-by-one"
        # nu is an integer, so nu < count is nu <= count - 1.
        reject &= ((nus <= cnt + pad) & at_top) | (
            (nus < cnt + pad2) & at_second)
        (kept,) = np.nonzero(~reject)
        kept = kept[np.argsort(dsts[kept], kind="stable")]
        return zip(dsts[kept].tolist(), ys[kept].tolist(),
                   cand_d[kept].tolist(), cand_l[kept].tolist(),
                   kappa[kept].tolist(), xs[kept].tolist(),
                   nus[kept].tolist(), cells[kept].tolist())

    def _gather_small(self, senders, send_d, send_l, send_x, send_nu):
        """:meth:`_gather` for a round too small to repay numpy's fixed
        cost: the same arrival rows from the Python CSR lists, and no
        reject pass."""
        indptr, heads, weights = self._indptr, self._heads, self._weights
        gamma, k, xi = self.gamma, self.k, self._xi
        rows = []
        for y, d_in, l_in, x, nu in zip(senders, send_d, send_l, send_x,
                                        send_nu):
            l = l_in + 1
            c = xi[x]
            for e in range(indptr[y], indptr[y + 1]):
                u = heads[e]
                d = d_in + weights[e]
                rows.append((u, y, d, l, d * gamma + l, x, nu, u * k + c))
        rows.sort(key=_DESTINATION)  # stable: senders stay ascending
        return rows


# Self-registration (see the note at the end of repro/perf/columnar.py).
_cmod.COLUMNAR_KERNELS.append(_PipelinedKernel)

__all__ = ["_PipelinedKernel"]
