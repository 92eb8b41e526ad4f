"""Columnar bulk kernel for the pipelined (h, k)-SSP program family.

This module vectorizes the paper's actual algorithm: where the
relaxation kernel (:mod:`repro.perf.columnar`) covers the Bellman-Ford
baselines, :class:`_PipelinedKernel` executes
:class:`~repro.core.pipelined.PipelinedSSPProgram` networks -- the hot
path behind every Table I experiment and every serve-layer oracle
build -- without per-message Python objects.

What is bulk and what is not
----------------------------
Per node, ``list_v`` becomes four parallel columns -- the sorted
``(kappa, d, x)`` sort keys plus ``l`` / ``parent`` / ``flag_sp`` --
mirrored by per-source key/flag subsequences and the count-of-counts
histogram, exactly the indexes the kernelised
:class:`~repro.core.node_list.NodeList` maintains on Entry objects.
On those columns:

* **Step 1 (send rule)** ``ceil(kappa + pos) == r`` runs as rank
  arithmetic on the key column (:func:`repro.core.keys.next_send_after`
  -- the strictly-increasing-schedule bisection), with the firing
  *index* cached next to the scheduled round so firing is O(1): no
  ``node_list`` bisection, no Entry access, and ``nu`` is two bisects
  (global run start + per-source rank);
* **Step 2 (deliveries)** run through the CSR gather: one flat
  ``(src, dst, w)`` edge batch per round, candidate ``d' = d + w``,
  ``l' = l + 1`` and ``kappa' = d' * gamma + l'`` computed for the
  whole batch as numpy vector ops, per-edge message tallies
  accumulated in flat counters -- no Envelope, payload tuple, or
  Counter update per message;
* **Steps 8-13 (insert_sp / eviction / nu-counting)** execute as
  scatter-min-style column passes: the flag-d* promotion is a bisect +
  column insert with the reference tie-break (equal-key demoted twin
  removed outright, else closest non-SP same-source entry above
  evicted when the Invariant 2 budget demands), the Step 13 quota gate
  is one per-source ``bisect_right``, and Invariant 1 is asserted per
  insert with the reference's exact message.

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
It reads a per-(node, source) snapshot -- the best ``(d, l, parent)``,
the per-source entry count and the largest per-source key
``(kappa, d)``, one float64 row per cell -- and drops every delivery
that is not a promotion against the snapshot best, whose ``nu`` is at
most the count, and whose key is at or above the largest key: the
fold would reject it anyway (the comment in :meth:`_round`
proves why a snapshot from any earlier moment of the run is safe).
The fold runs over what the pass keeps, and the rows of the cells a
round changed are rewritten afterwards.  Accounting is taken before
the pass, on every delivery.

Scheduling touches only what moved: a sender whose list the round left
unchanged fires next at its following index (the schedule
``ceil(kappa_i + i + 1)`` strictly increases in ``i``), only receivers
whose list changed are re-bisected, and every other node keeps its
slot.

Exactness contract
------------------
Same as the relaxation kernel: load / compute / store.  ``run()``
flattens program state into columns
(:meth:`~repro.core.pipelined.PipelinedSSPProgram.export_kernel_state`),
executes rounds on them, and materializes them back
(:meth:`~repro.core.pipelined.PipelinedSSPProgram.adopt_kernel_state`)
in a ``finally`` -- so outputs, round numbers, resumption, checkpoints
and post-mortems observe exactly the state the per-message backends
would have produced, and ``tests/backend_conformance.py`` pins the
equality differentially (including deliberate-corruption runs via the
``send-rank-off-by-one`` / ``nu-off-by-one`` /
``reject-filter-off-by-one`` modes this module honors).

Keys are recomputed as the same single multiply-add on ``(d, l)`` as
the scalar path -- a float64 vector op, bit-identical for the integer
ranges the CONGEST word model admits -- so list orders agree across
backends to the last ulp.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from math import ceil as _ceil, inf as _INF
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.keys import next_send_after
from ..obs.profiling import HOT as _HOT
from .fast_network import RoundLimitExceeded
from . import columnar as _cmod

_Key = Tuple[float, int, int]

#: Words per pipelined payload ``(d, l, x, flag_sp, nu)`` -- five
#: scalars (repro.congest.message.payload_words).
_PAYLOAD_WORDS = 5

#: Reject-pass snapshot row of a (node, source) cell without entries:
#: an unset best, so every delivery to it is kept (each one promotes).
_EMPTY_ROW = (_INF, _INF, -1.0, 0.0, -_INF, -_INF)


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
          ``directed_broadcast`` / ``budget`` -- the kernel hoists them
          once; mixed-parameter networks (never produced by the entry
          points) take the generic loop;
        * ``trace is None`` and ``record_sends`` off: both observe
          per-send events the bulk path never materializes (paranoid
          mode forces ``record_sends`` on, so a paranoid process also
          stays on the instrumented loop);
        * a known ``list_v`` kernel, so the column export/import is
          exact for its index structure;
        * ``max_message_words >= 5``: a smaller budget must raise the
          reference's ``MessageSizeError``, which the generic loop
          does;
        * ``int`` weights and duplicate-free broadcast targets, so
          channel enforcement can never trigger on the bulk path
          (``channel_capacity >= 1`` is construction-enforced).
        """
        from ..core.pipelined import PipelinedSSPProgram
        from ..core.node_list import LIST_KERNELS
        programs = net.programs
        if not programs or type(programs[0]) is not PipelinedSSPProgram:
            return False
        if net.max_message_words < _PAYLOAD_WORDS:
            return False
        p0 = programs[0]
        sources0 = tuple(p0.sources)
        params0 = (p0.h, p0.gamma, p0.cutoff_round, p0.directed_broadcast,
                   p0.budget)
        list_types = tuple(LIST_KERNELS.values())
        for v, p in enumerate(programs):
            if (type(p) is not PipelinedSSPProgram or p.v != v
                    or tuple(p.sources) != sources0
                    or (p.h, p.gamma, p.cutoff_round, p.directed_broadcast,
                        p.budget) != params0
                    or p.trace is not None or p.record_sends
                    or type(p.list_v) not in list_types):
                return False
        directed = p0.directed_broadcast
        for ctx in net.contexts:
            seen = set()
            for u, w in ctx.out_edges:
                if type(w) is not int or u in seen:
                    return False
                seen.add(u)
            if not directed:
                neigh = ctx.comm_neighbors
                if len(set(neigh)) != len(neigh):
                    return False
        return True

    def revalidate(self) -> bool:
        """Per-run dynamic eligibility on the memoized kernel: paranoid
        mode may have been toggled since the static scan (it re-derives
        kernel queries through Entry objects the bulk path does not
        keep)."""
        from ..core import node_list as _node_list
        return not _node_list.PARANOID

    def __init__(self, net) -> None:
        self.net = net
        self.n = net.n
        p0 = net.programs[0]
        self.h: int = p0.h
        self.gamma: float = p0.gamma
        self.cutoff: Optional[int] = p0.cutoff_round
        self.budget: Optional[int] = p0.budget
        self.directed: bool = p0.directed_broadcast
        #: Served sources and each one's column in the snapshot rows
        #: (cell ``v * k + xi``; -1 for non-sources, never a payload x).
        self.sources: Tuple[int, ...] = tuple(dict.fromkeys(p0.sources))
        self.k = len(self.sources)
        self._xi = [-1] * self.n
        for xi, x in enumerate(self.sources):
            self._xi[x] = xi
        # CSR of the broadcast targets, node ranges in increasing node
        # order.  Directed mode broadcasts over out-edges; undirected
        # mode over comm_neighbors, where the *relaxation* weight is the
        # receiver's weight_in(sender) -- the sender's out-edge weight
        # to that neighbour, absent (wok=False) when the channel exists
        # only for the reverse edge (the message is still delivered and
        # counted; there is just nothing to relax).  Python lists where
        # a Python loop reads them per element, numpy for the round.
        indptr = [0]
        heads: List[int] = []
        weights: List[int] = []
        wok: List[bool] = []
        for v in range(self.n):
            ctx = net.contexts[v]
            if self.directed:
                for u, w in ctx.out_edges:
                    heads.append(u)
                    weights.append(w)
                    wok.append(True)
            else:
                out_w = dict(ctx.out_edges)
                for u in ctx.comm_neighbors:
                    w = out_w.get(u)
                    heads.append(u)
                    weights.append(0 if w is None else w)
                    wok.append(w is not None)
            indptr.append(len(heads))
        self._indptr = indptr
        self._heads = heads
        self._all_wok = all(wok)
        self._np_indptr = np.asarray(indptr, dtype=np.int64)
        self._np_heads = np.asarray(heads, dtype=np.int64)
        self._np_weights = np.asarray(weights, dtype=np.int64)
        self._np_wok = np.asarray(wok, dtype=bool)
        self._np_xi = np.asarray(self._xi, dtype=np.int64)
        #: Per-CSR-edge message tallies, flushed to the RunMetrics
        #: Counter once per run.
        self._np_edge_msgs = np.zeros(len(heads), dtype=np.int64)

    # -- load / store ------------------------------------------------------

    def _load(self) -> None:
        """Program state -> columns (see the module docstring for the
        layout).  Per-source key/flag subsequences and the
        count-of-counts histogram are derived from the flat columns, so
        the load is exact for both list kernels."""
        n = self.n
        self.KEYS: List[List[_Key]] = [None] * n
        self.LCOL: List[List[int]] = [None] * n
        self.PCOL: List[List[Optional[int]]] = [None] * n
        self.FCOL: List[List[bool]] = [None] * n
        self.SKEYS: List[Dict[int, List[_Key]]] = [None] * n
        self.SFLAGS: List[Dict[int, List[bool]]] = [None] * n
        self.CFREQ: List[Dict[int, int]] = [None] * n
        self.CMAX: List[int] = [0] * n
        self.BEST: List[Dict[int, list]] = [None] * n
        self.MAXLEN: List[int] = [0] * n
        self.MAXSRC: List[int] = [0] * n
        self.LASTSP: List[int] = [0] * n
        self.SENDS: List[int] = [0] * n
        for v, p in enumerate(self.net.programs):
            st = p.export_kernel_state()
            keys = st["keys"]
            flags = st["flag"]
            self.KEYS[v] = keys
            self.LCOL[v] = st["l"]
            self.PCOL[v] = st["parent"]
            self.FCOL[v] = flags
            skeys: Dict[int, List[_Key]] = {}
            sflags: Dict[int, List[bool]] = {}
            for i, key in enumerate(keys):
                x = key[2]
                sk = skeys.get(x)
                if sk is None:
                    sk = skeys[x] = []
                    sflags[x] = []
                sk.append(key)
                sflags[x].append(flags[i])
            freq: Dict[int, int] = {}
            top = 0
            for sk in skeys.values():
                c = len(sk)
                freq[c] = freq.get(c, 0) + 1
                if c > top:
                    top = c
            self.SKEYS[v] = skeys
            self.SFLAGS[v] = sflags
            self.CFREQ[v] = freq
            self.CMAX[v] = top
            self.BEST[v] = {x: [d, l, par]
                            for x, (d, l, par) in st["best"].items()}
            self.MAXLEN[v] = st["max_list_len"]
            self.MAXSRC[v] = st["max_per_source"]
            self.LASTSP[v] = st["last_sp_round"]
            self.SENDS[v] = st["sends"]
        self._load_snapshot()

    def _load_snapshot(self) -> None:
        """Build the reject pass's inputs: the snapshot rows (one per
        (node, source) cell, see :meth:`_snap_row`) and the set of nodes
        whose receive stats lag their lists (a source right after
        ``on_start``, or restored state) -- the reference refreshes those
        stats in every ``on_receive``, including one whose arrivals are
        all rejected, so :meth:`_round` still runs the epilogue for
        them."""
        snap = np.empty((self.n * self.k, 6))
        snap[:] = _EMPTY_ROW
        cells = [v * self.k + self._xi[x]
                 for v in range(self.n) for x in self.SKEYS[v]]
        if cells:
            snap[cells] = [self._snap_row(c) for c in cells]
        self._snap = snap
        self._lag = {v for v in range(self.n)
                     if self.MAXLEN[v] < len(self.KEYS[v])
                     or self.MAXSRC[v] < self.CMAX[v]}

    def _snap_row(self, cell: int) -> Tuple[float, ...]:
        """Cell ``v * k + xi``'s snapshot row ``(best d, best l, best
        parent or -1, entry count, largest key kappa, largest key d)``,
        all read at one moment."""
        v, xi = divmod(cell, self.k)
        x = self.sources[xi]
        b = self.BEST[v][x]
        sk = self.SKEYS[v][x]
        top = sk[-1]
        return (b[0], b[1], -1 if b[2] is None else b[2], len(sk),
                top[0], top[1])

    def _store(self) -> None:
        """Columns -> program state (in place, preserving the object
        identities resumption and checkpoints rely on)."""
        for v, p in enumerate(self.net.programs):
            p.adopt_kernel_state({
                "keys": self.KEYS[v], "l": self.LCOL[v],
                "parent": self.PCOL[v], "flag": self.FCOL[v],
                "best": {x: (b[0], b[1], b[2])
                         for x, b in self.BEST[v].items()},
                "max_list_len": self.MAXLEN[v],
                "max_per_source": self.MAXSRC[v],
                "last_sp_round": self.LASTSP[v],
                "sends": self.SENDS[v],
            })

    # -- count-of-counts histogram (mirrors NodeList._link/_unlink) --------

    def _hist_link(self, v: int, count_after: int) -> None:
        freq = self.CFREQ[v]
        c = count_after - 1
        if c:
            freq[c] -= 1
        freq[count_after] = freq.get(count_after, 0) + 1
        if count_after > self.CMAX[v]:
            self.CMAX[v] = count_after

    def _hist_unlink(self, v: int, count_before: int) -> None:
        freq = self.CFREQ[v]
        freq[count_before] -= 1
        if count_before > 1:
            freq[count_before - 1] = freq.get(count_before - 1, 0) + 1
        if self.CMAX[v] == count_before and freq.get(count_before, 0) == 0:
            self.CMAX[v] = count_before - 1

    # -- send schedule -----------------------------------------------------

    def _next_fire(self, keys: List[_Key], r: int):
        """``(round, index)`` of the earliest fire strictly after round
        *r* under the current positions, or ``(None, 0)``.  The index is
        cached by the caller: the schedule is strictly increasing, so
        the entry found here is exactly the one that fires in that
        round, and any list mutation before then re-runs this bisection
        (every round re-bisects the lists it changed)."""
        off = 0 if _cmod._CORRUPTION == "send-rank-off-by-one" else 1
        hit = next_send_after(keys, r, pos_offset=off)
        if hit is None:
            return None, 0
        idx, nr = hit
        if self.cutoff is not None and nr > self.cutoff:
            return None, 0
        return nr, idx

    # -- the round loop ----------------------------------------------------

    def run(self, max_rounds: int) -> Any:
        net = self.net
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

        self._load()
        n = self.n
        KEYS = self.KEYS
        SENDS = self.SENDS
        SKEYS = self.SKEYS
        LCOL = self.LCOL
        node_sends = metrics.node_sends
        indptr = self._indptr
        nu_pad = 2 if _cmod._CORRUPTION == "nu-off-by-one" else 1
        pos_off = 0 if _cmod._CORRUPTION == "send-rank-off-by-one" else 1
        cutoff = self.cutoff
        ceil = _ceil  # hot loop: avoid attribute/global lookups

        sched: List[Optional[int]] = [None] * n
        firei: List[int] = [0] * n
        heap: List[Tuple[int, int]] = []
        prev_r = net._round
        for v in range(n):
            nr, idx = self._next_fire(KEYS[v], prev_r)
            if nr is not None:
                sched[v] = nr
                firei[v] = idx
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
                    _cmod._flush(self, msg_count, _PAYLOAD_WORDS)
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
                # matching the fast backend's pop order) and their
                # payload columns.  The firing entry is the cached index;
                # nu is two bisects (global run start + per-source rank).
                # flag_sp is not collected: no receiver reads it.
                senders: List[int] = []
                send_d: List[int] = []
                send_l: List[int] = []
                send_x: List[int] = []
                send_nu: List[int] = []
                while heap and heap[0][0] == r:
                    _, v = heappop(heap)
                    if sched[v] != r:
                        continue
                    sched[v] = None
                    keys_v = KEYS[v]
                    i = firei[v]
                    key = keys_v[i]
                    x = key[2]
                    sk = SKEYS[v][x]
                    nu = (bisect_left(sk, key)
                          + (i - bisect_left(keys_v, key)) + nu_pad)
                    senders.append(v)
                    send_d.append(key[1])
                    send_l.append(LCOL[v][i])
                    send_x.append(x)
                    send_nu.append(nu)
                    SENDS[v] += 1

                # Steps 2-13: expand deliveries through the CSR, fold
                # per-destination candidates in ascending-source order.
                total, changed = self._round(
                    r, senders, send_d, send_l, send_x, send_nu)

                if total:
                    msg_count += total
                    metrics.active_rounds += 1
                    if r > metrics.rounds:
                        metrics.rounds = r
                    for v in senders:
                        if indptr[v + 1] > indptr[v]:
                            node_sends[v] += 1

                # Reschedule what moved.  A sender whose list the round
                # left unchanged fires next at its following index: the
                # schedule ceil(kappa_i + i + off) strictly increases in
                # i, so that index is the first one due after r.  Only
                # changed lists are re-bisected; every other node keeps
                # its slot (its positions did not shift).
                for v in senders:
                    if v in changed:
                        continue
                    i = firei[v] + 1
                    keys_v = KEYS[v]
                    if i < len(keys_v):
                        nr = ceil(keys_v[i][0] + i + pos_off)
                        if cutoff is None or nr <= cutoff:
                            firei[v] = i
                            sched[v] = nr
                            heappush(heap, (nr, v))
                # The bisection is _next_fire inlined, testing
                # kappa + i + off <= r (equal to ceil(...) <= r for an
                # integer r) -- this is the hottest loop after the fold.
                for v in changed:
                    keys_v = KEYS[v]
                    nk = len(keys_v)
                    lo, hi = 0, nk
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if keys_v[mid][0] + mid + pos_off <= r:
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo == nk:
                        nr = None
                    else:
                        nr = ceil(keys_v[lo][0] + lo + pos_off)
                        if cutoff is not None and nr > cutoff:
                            nr = None
                    firei[v] = lo
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
            self._store()
            _cmod._flush(self, msg_count, _PAYLOAD_WORDS)
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                net._published = publish_run_metrics(
                    registry, metrics, state=net._published)
        return metrics

    # -- one round: delivery expansion -------------------------------------

    def _round(self, r, senders, send_d, send_l, send_x, send_nu):
        """The vectorized round: one CSR gather for the whole edge
        batch, candidate ``(d', l', kappa')`` as vector ops, the reject
        pass against the snapshot, then the sequential per-destination
        fold over the deliveries the pass keeps.  Returns
        ``(messages_sent, changed)``: *changed* holds the receivers
        whose lists the fold changed, ascending."""
        sv = np.asarray(senders, dtype=np.int64)
        starts = self._np_indptr[sv]
        counts = self._np_indptr[sv + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return 0, {}
        offs = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(counts)[:-1])), counts)
        edges = np.arange(total, dtype=np.int64) + offs
        dsts = self._np_heads[edges]
        # Accounting first: every delivery is counted, kept or not.
        self._np_edge_msgs[edges] += 1
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
        # so nu <= count fails the Step 13 quota now.  Any snapshot from
        # earlier in the same run therefore never drops a delivery the
        # fold would keep; refresh frequency only changes how much is
        # dropped.  A row's values must come from one moment, so rows
        # are only ever written whole (_snap_row).
        bd, bl, bp, cnt, kk, kd = self._snap[cells].T
        reject = (cand_d > bd) | ((cand_d == bd) & (
            (cand_l > bl) | ((cand_l == bl) & (ys >= bp))))
        pad = _cmod._CORRUPTION == "reject-filter-off-by-one"
        reject &= nus <= cnt + pad
        reject &= (kappa > kk) | ((kappa == kk) & (cand_d >= kd))
        if not self._all_wok:
            # channel exists only for the reverse edge: delivered and
            # counted above, nothing to relax
            reject |= ~self._np_wok[edges]
        (kept,) = np.nonzero(~reject)
        kept = kept[np.argsort(dsts[kept], kind="stable")]

        arrival = self._arrival
        changed: Dict[int, None] = {}
        changed_cells = set()
        for u, y, d, l, kap, x, nu, c in zip(
                dsts[kept].tolist(), ys[kept].tolist(),
                cand_d[kept].tolist(), cand_l[kept].tolist(),
                kappa[kept].tolist(), xs[kept].tolist(),
                nus[kept].tolist(), cells[kept].tolist()):
            if arrival(u, r, y, d, l, kap, x, nu):
                changed[u] = None
                changed_cells.add(c)
        if changed_cells:
            idx = list(changed_cells)
            self._snap[idx] = [self._snap_row(c) for c in idx]

        # Receiver epilogue: the stats only move for lists that changed,
        # and for delivered-to nodes whose stats lag their list.
        finish = self._finish_receiver
        for u in changed:
            finish(u)
        lag = self._lag
        if lag:
            for u in lag.intersection(dsts.tolist()):
                finish(u)
                lag.discard(u)
        return total, changed

    # -- one arrival (Steps 8-13 on the columns) ---------------------------

    def _arrival(self, v: int, r: int, y: int, d: int, l: int,
                 kappa: float, x: int, nu_in: int) -> bool:
        """Fold one candidate into node *v*'s columns -- the exact
        Steps 8-13 of the reference ``on_receive``, on columns instead
        of Entry objects.  Returns whether the lists changed."""
        b = self.BEST[v][x]
        bd = b[0]
        bl = b[1]
        promote = False
        if d < bd:
            promote = True
        elif d == bd:
            if l < bl:
                promote = True
            elif l == bl:
                bp = b[2]
                promote = y < (-1 if bp is None else bp)
        key = (kappa, d, x)
        skeys = self.SKEYS[v]
        sk = skeys.get(x)
        if not promote and (bisect_right(sk, key) if sk else 0) >= nu_in:
            return False  # Step 13: the non-SP quota gate rejects it
        keys = self.KEYS[v]
        sflags = self.SFLAGS[v]
        lcol = self.LCOL[v]
        pcol = self.PCOL[v]
        fcol = self.FCOL[v]
        if promote:
            # Steps 9-11: new flag-d* holder; inserting the SP entry
            # does not evict by itself.
            gi = bisect_right(keys, key)
            keys.insert(gi, key)
            lcol.insert(gi, l)
            pcol.insert(gi, y)
            fcol.insert(gi, True)
            if sk is None:
                sk = skeys[x] = []
                sflags[x] = []
            sf = sflags[x]
            j = bisect_right(sk, key)
            sk.insert(j, key)
            sf.insert(j, True)
            self._hist_link(v, len(sk))
            pos = gi + 1
            had_old = bd != _INF
            if had_old:
                # Demote the previous holder.  Equal sort key: the
                # parent-id tie-break replacement -- the fully dominated
                # twin sits *below* the newcomer and is dropped
                # outright.  Otherwise: evict over the Invariant 2
                # budget (0 under the "always" ablation).
                old_key = (bd * self.gamma + bl, bd, x)
                j0 = bisect_left(sk, old_key)
                j1 = bisect_right(sk, old_key)
                t_old = -1
                for t in range(j0, j1):
                    if sf[t] and t != j:
                        t_old = t
                        break
                if t_old < 0:  # structurally impossible: SP never evicted
                    raise AssertionError(
                        f"columnar pipelined kernel: lost flag-d* entry "
                        f"for source {x} at node {v}")
                sf[t_old] = False
                g_old = bisect_left(keys, old_key) + (t_old - j0)
                fcol[g_old] = False
                if old_key == key:
                    del keys[g_old]
                    del lcol[g_old]
                    del pcol[g_old]
                    del fcol[g_old]
                    del sk[t_old]
                    del sf[t_old]
                    self._hist_unlink(v, len(sk) + 1)
                else:
                    bud = 0 if self.budget is None else self.budget
                    if len(sk) > bud:
                        self._evict_above(v, x, j)
            b[0] = d
            b[1] = l
            b[2] = y
            if l <= self.h:
                self.LASTSP[v] = r
            if r >= _ceil(kappa + pos):  # Invariant 1 (Lemma II.12)
                self._inv1_fail(v, r, d, l, kappa, x, y, True, pos)
            return True
        # Step 13 admitted it: Insert with eviction of the closest
        # non-SP same-source entry above.  (A non-SP arrival passes the
        # quota only with a finite best, so its source has entries.)
        gi = bisect_right(keys, key)
        keys.insert(gi, key)
        lcol.insert(gi, l)
        pcol.insert(gi, y)
        fcol.insert(gi, False)
        sf = sflags[x]
        j = bisect_right(sk, key)
        sk.insert(j, key)
        sf.insert(j, False)
        self._hist_link(v, len(sk))
        bud = self.budget
        if bud is None or len(sk) > bud:
            self._evict_above(v, x, j)
        pos = gi + 1
        if r >= _ceil(kappa + pos):  # Invariant 1 (Lemma II.12)
            self._inv1_fail(v, r, d, l, kappa, x, y, False, pos)
        return True

    def _evict_above(self, v: int, x: int, src_index: int) -> None:
        """Remove the closest non-SP entry for source *x* strictly above
        per-source index *src_index*, if any (NodeList._evict_above on
        columns)."""
        sk = self.SKEYS[v][x]
        sf = self.SFLAGS[v][x]
        for t in range(src_index + 1, len(sk)):
            if not sf[t]:
                key = sk[t]
                keys = self.KEYS[v]
                g = bisect_left(keys, key) + (t - bisect_left(sk, key))
                del keys[g]
                del self.LCOL[v][g]
                del self.PCOL[v][g]
                del self.FCOL[v][g]
                del sk[t]
                del sf[t]
                self._hist_unlink(v, len(sk) + 1)
                return

    def _inv1_fail(self, v: int, r: int, d: int, l: int, kappa: float,
                   x: int, parent: int, flag_sp: bool, pos: int) -> None:
        """Raise the Invariant 1 (Lemma II.12) violation with the
        reference's exact message (the Entry repr is reproduced from the
        columns).  Callers inline the ``r >= ceil(kappa + pos)`` check
        so the happy path pays no call."""
        star = "*" if flag_sp else ""
        raise AssertionError(
            f"Invariant 1 violated at node {v}, round {r}: "
            f"inserted Entry(k={kappa:.3f}, d={d}, l={l}, "
            f"x={x}{star}, p={parent}) at pos {pos} "
            f"with ceil(kappa+pos)={_ceil(kappa + pos)}")

    def _finish_receiver(self, v: int) -> None:
        """Per-receiver round epilogue: the O(1) stats the reference
        updates at the end of every ``on_receive``."""
        ln = len(self.KEYS[v])
        if ln > self.MAXLEN[v]:
            self.MAXLEN[v] = ln
        cm = self.CMAX[v]
        if cm > self.MAXSRC[v]:
            self.MAXSRC[v] = cm


# Self-registration (see the note at the end of repro/perf/columnar.py).
_cmod.COLUMNAR_KERNELS.append(_PipelinedKernel)

__all__ = ["_PipelinedKernel"]
