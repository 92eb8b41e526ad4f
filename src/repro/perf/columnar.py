"""The columnar bulk-synchronous simulator engine.

:class:`ColumnarNetwork` is the production backend and the default
(``backend="columnar"``).  Its event-driven loop
(:class:`~repro.perf.fast_network.FastNetwork`) removes the reference
loop's per-round O(n) scans and the node-state kernels remove the
per-entry list scans; the remaining per-message cost on the hot path is
*Python object traffic*: an :class:`~repro.congest.message.Envelope`
allocation, a payload tuple, a ``Counter`` update, and several method
calls for every single message.  At n in the tens of thousands that
object traffic dominates wall-clock.

The columnar engine eliminates it for two program families: the
**relaxation family** (:class:`~repro.core.bellman_ford.BellmanFordProgram`
-- SSSP, h-hop DP, the k-source/APSP baselines) and the paper's own
**pipelined (h, k)-SSP family**
(:class:`~repro.core.pipelined.PipelinedSSPProgram`, bulk kernel in
:mod:`repro.perf.columnar_pipelined` -- the hot path behind every
Table I experiment and every serve-layer shard build).  For the
relaxation family, per-node state lives in flat columns (distances,
arrival rounds, parents, the send schedule), the graph lives in CSR
arrays, and each round's sends, deliveries, distance updates, and
wavefront evictions execute as a handful of bulk array operations
instead of ~messages x method calls:

* **send schedule** -- the relaxation wavefront is a single flat array
  of scheduled node ids (every improved node fires in the next round,
  so the whole schedule is one ``(round, nodes[])`` pair); quiescence
  is ``len(wave) == 0``;
* **deliveries** -- one CSR gather produces the round's full
  ``(src, dst, weight)`` edge batch; candidate distances are
  ``d[src] + w`` in one vector op; no Envelope or payload tuple is
  ever built;
* **distance updates** (the relaxation analogue of the pipelined
  ``insert_sp``) -- a scatter-min over the batch, with the reference
  backend's deterministic tie-break (first strictly-improving sender in
  ascending-id inbox order wins the parent slot) reproduced by a second
  scatter-min over the argmin set;
* **budget evictions** -- consumed schedule slots are retired wholesale
  (the wavefront array is *replaced*, not edited per node) and message
  / word / per-channel accounting accumulates in flat per-edge counters
  flushed to :class:`~repro.congest.metrics.RunMetrics` once per run.

The pipelined kernel shares the CSR gather, the vectorized candidate
computation and the per-edge accounting, but keeps no columns of
program state: it schedules sends on each node's own list and hands
every arrival its vectorized reject pass keeps to the program's own
receive step -- or, in a round with few deliveries, every arrival,
straight from the send columns (see
:mod:`repro.perf.columnar_pipelined`).

Equality is pinned, not hoped for: ``tests/backend_conformance.py``
drives every backend in :data:`repro.perf.backends.BACKENDS` through
the differential harness (Hypothesis corpora, golden fixtures,
instrumented digests, resumption, hook parity).  The relaxation kernel
*materializes* its columns back into the program objects at every
``run()`` exit and the pipelined kernel changes the programs in place,
so ``outputs()``, resumption, checkpointing, and post-mortems read the
exact state the reference execution would have left behind.

Programs outside the vectorizable family -- and any run with a fault
plan, monitor, tracer, or record window attached, or with path sums a
kernel cannot add exactly (:func:`edges_bulk_safe`) -- execute on the
inherited event-driven loop, which honors the full hook surface with
reference semantics.  That is the explicit-vs-ambient rule of
:mod:`repro.perf.backends` taken seriously: an explicit
``backend="columnar"`` must never silently diverge, so the bulk path is
taken exactly when it is provably equivalent.  Eligibility has two
tiers: the *static* facts (program family, uniform parameters, graph
shape) are scanned once per network -- programs and topology are fixed
at construction, so the O(n + m) verdict is memoized across ``run()``
re-entries and resumptions -- while the cheap *dynamic* conditions
(hooks attached after construction, wavefront alignment, paranoid
mode) are re-checked at every entry.

Both bulk kernels run on numpy, a declared dependency: the CSR
gathers, candidate computation, scatter-mins and per-edge tallies are
vector operations, and Python loops remain only where a fold is
inherently sequential.
"""

from __future__ import annotations

from math import inf as _INF
from time import perf_counter as _perf
from typing import Any, List, Optional, Type

import numpy as np

from ..obs.profiling import HOT as _HOT
from .fast_network import FastNetwork, RoundLimitExceeded


def numpy_enabled() -> bool:
    """Always ``True``; kept because ``perfbench/run.py`` prints it."""
    return True


# ---------------------------------------------------------------------------
# deliberate-corruption hook (mutation tests for the conformance suite)

#: ``None`` in production.  tests/backend_conformance.py sets a mode via
#: :func:`set_corruption` to verify the conformance suite *catches* a
#: broken columnar round -- the same paranoia-about-the-test-suite that
#: tests/test_node_list_kernels.py applies to the node kernels.
_CORRUPTION: Optional[str] = None

CORRUPTION_MODES = (
    # drop the last scheduled sender from each wavefront, as an
    # off-by-one in the bulk schedule-retirement slice would:
    "evict-off-by-one",
    # skip the per-round node_sends bulk update, as a stale counter
    # column would:
    "stale-count",
    # pipelined kernel: schedule every send one round early
    # (ceil(kappa + pos) computed with 0-based positions), as an
    # off-by-one in the rank arrays that replace the node_list
    # bisection would:
    "send-rank-off-by-one",
    # pipelined kernel: advertise nu as the per-source rank + 2 instead
    # of rank + 1, as an inclusive/exclusive mix-up in the segmented
    # nu-count pass would:
    "nu-off-by-one",
    # pipelined kernel (reject pass): reject deliveries with
    # nu <= count + 1 instead of nu <= count, dropping arrivals the
    # Step 13 quota would admit, as an off-by-one in the filter would:
    "reject-filter-off-by-one",
)


def set_corruption(mode: Optional[str]) -> Optional[str]:
    """Install a deliberate columnar-kernel bug (test hook); returns the
    previous mode.  ``None`` restores correct behaviour."""
    global _CORRUPTION
    if mode is not None and mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; pick one of "
            f"{CORRUPTION_MODES}")
    prev, _CORRUPTION = _CORRUPTION, mode
    return prev


# ---------------------------------------------------------------------------
# shared eligibility and accounting


def edges_bulk_safe(net) -> bool:
    """The graph facts both kernels need: plain-``int`` weights and
    duplicate-free out-neighbours, so CONGEST channel enforcement can
    never trigger on a bulk path (a duplicated channel must raise the
    reference backend's ``CongestionError``, which the generic loop
    does); and every path sum below 2^53, where the kernels' float64
    distance comparisons (and the pipelined kernel's int64 sums) stop
    being exact.  A simple path has at most ``n - 1`` edges; past the
    bound the network runs on the per-message loop, which adds in
    Python ints like the reference."""
    max_w = 0
    for ctx in net.contexts:
        seen = set()
        for u, w in ctx.out_edges:
            if type(w) is not int or u in seen:
                return False
            seen.add(u)
            if w > max_w:
                max_w = w
    return (net.n - 1) * max_w < 2 ** 53


def _flush(kernel, msg_count: int, payload_words: int) -> None:
    """A bulk kernel's accumulated accounting -> RunMetrics (idempotent:
    the per-edge tallies are zeroed as they are drained).  Both kernels
    keep the same CSR tally columns and differ only in words per
    payload."""
    metrics = kernel.net.metrics
    if msg_count:
        metrics.messages += msg_count
        metrics.words += payload_words * msg_count
        if metrics.max_message_words < payload_words:
            metrics.max_message_words = payload_words
    counts = kernel._np_edge_msgs
    (nz,) = np.nonzero(counts)
    if len(nz):
        heads = kernel._heads
        chmsg = metrics.channel_messages
        srcs = np.searchsorted(kernel._np_indptr, nz, side="right") - 1
        for e, u, c in zip(nz.tolist(), srcs.tolist(), counts[nz].tolist()):
            chmsg[(u, heads[e])] += c
        counts[nz] = 0


# ---------------------------------------------------------------------------
# the relaxation kernel


class _RelaxationKernel:
    """Columnar executor for networks whose every program is a
    :class:`~repro.core.bellman_ford.BellmanFordProgram`.

    The engine is load / compute / store: ``run`` reads the programs'
    state into flat columns, executes rounds as bulk array operations,
    and materializes the columns back into the program objects in a
    ``finally`` -- so between ``run()`` calls the programs remain the
    single source of truth (outputs, resumption, checkpoints, and
    post-mortems never see kernel-private state), exactly as the
    event-driven loop rebuilds its worklist heap on every entry.
    """

    @staticmethod
    def matches(net: "ColumnarNetwork") -> bool:
        """Whether this network is bulk-executable: the *static*
        eligibility scan (memoized by the network -- programs and graph
        are fixed at construction).

        Beyond the program family, two properties the vectorized round
        relies on are checked up front (each falls back to the generic
        loop rather than diverging):

        * one hop cutoff shared by all nodes (the silent-round cutoff
          is applied to the whole wavefront at once);
        * the graph facts of :func:`edges_bulk_safe`: plain-``int``
          weights (so float64 columns reproduce the reference's output
          types exactly), duplicate-free out-neighbours, and path sums
          exact in float64.

        Per-run dynamic conditions live in :meth:`revalidate`.
        """
        from ..core.bellman_ford import BellmanFordProgram
        programs = net.programs
        if not programs or type(programs[0]) is not BellmanFordProgram:
            return False
        hops_cap = programs[0].max_hops
        for p in programs:
            if type(p) is not BellmanFordProgram or p.max_hops != hops_cap:
                return False
        return edges_bulk_safe(net)

    def revalidate(self) -> bool:
        """Per-run dynamic eligibility, re-checked at every ``run()``
        entry on the memoized kernel: a *single* wavefront -- every
        scheduled node announces in the same round.  True throughout
        any fault-free relaxation run, but a checkpoint captured
        mid-flight under faults can restore staggered announce rounds
        onto a fault-free network; such a run takes the generic loop
        (that run only -- the bulk path returns once the stagger
        drains)."""
        wave_round = None
        for p in self.net.programs:
            a = p._announce
            if a is not None:
                if wave_round is None:
                    wave_round = a
                elif a != wave_round:
                    return False
        return True

    def __init__(self, net: "ColumnarNetwork") -> None:
        self.net = net
        self.n = net.n
        self.max_hops = net.programs[0].max_hops
        # CSR of the outgoing directed edges (broadcast_out targets),
        # node ranges in increasing node order: Python lists for the
        # per-element loops (node_sends, the flush), numpy mirrors for
        # the vector round.
        indptr = [0]
        heads: List[int] = []
        weights: List[int] = []
        for v in range(self.n):
            for u, w in net.contexts[v].out_edges:
                heads.append(u)
                weights.append(w)
            indptr.append(len(heads))
        self._indptr = indptr
        self._heads = heads
        self._np_indptr = np.asarray(indptr, dtype=np.int64)
        self._np_heads = np.asarray(heads, dtype=np.int64)
        self._np_weights = np.asarray(weights, dtype=np.float64)
        #: Per-CSR-edge message tallies, flushed to the RunMetrics
        #: Counter once per run (bulk accounting, not per-message).
        self._np_edge_msgs = np.zeros(len(heads), dtype=np.int64)

    # -- load / store ------------------------------------------------------

    def _load(self):
        """Program state -> columns.  Distances as float64 (exact for
        the ``int`` weights :meth:`matches` guarantees; inf = unset)."""
        programs = self.net.programs
        n = self.n
        d = [0.0] * n
        hops = [0.0] * n
        parent = [-1] * n
        wave: List[int] = []
        wave_round = None
        for v, p in enumerate(programs):
            d[v] = p.d
            hops[v] = p.hops
            parent[v] = -1 if p.parent is None else p.parent
            if p._announce is not None:
                wave_round = p._announce
                wave.append(v)
        return (np.asarray(d, dtype=np.float64),
                np.asarray(hops, dtype=np.float64),
                np.asarray(parent, dtype=np.int64), wave, wave_round)

    def _store(self, d, hops, parent, wave, wave_round) -> None:
        """Columns -> program state, as plain Python scalars (the
        digest tests ``repr()`` the outputs, and the reference backend
        produces ``int`` distances for ``int`` weights -- an
        ``np.int64`` or stray ``5.0`` leaking out would change the
        bytes)."""
        programs = self.net.programs
        scheduled = set(wave)
        for v, p in enumerate(programs):
            dv = float(d[v])
            hv = float(hops[v])
            pv = int(parent[v])
            p.d = dv if dv == _INF else int(dv)
            p.hops = hv if hv == _INF else int(hv)
            p.parent = None if pv < 0 else pv
            p._announce = wave_round if v in scheduled else None

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

        d, hops, parent, wave, wave_round = self._load()
        node_sends = metrics.node_sends
        indptr = self._indptr
        hops_cap = self.max_hops
        prev_r = net._round
        msg_count = 0
        try:
            while wave:
                r = wave_round
                if r > max_rounds:
                    _flush(self, msg_count, 1)
                    msg_count = 0
                    sched: List[Optional[int]] = [None] * self.n
                    for v in wave:
                        sched[v] = r
                    raise RoundLimitExceeded(
                        f"no quiescence by round {max_rounds}; "
                        f"next scheduled activity at round {r}",
                        net._post_mortem("round limit exceeded",
                                         max_rounds, sched))
                if r > prev_r + 1:
                    metrics.skipped_rounds += r - prev_r - 1
                prev_r = r
                net._round = r
                if timed:
                    t_round = _perf()

                if _CORRUPTION == "evict-off-by-one":
                    wave = wave[:-1]

                if hops_cap is not None and r > hops_cap:
                    # Senders past the hop cutoff execute silently: the
                    # round happens (the counter advanced through it)
                    # but offers no load and wakes nobody.
                    wave, wave_round = [], None
                else:
                    sent, improved = self._round(d, hops, parent, wave, r)
                    if sent:
                        msg_count += sent
                        metrics.active_rounds += 1
                        if r > metrics.rounds:
                            metrics.rounds = r
                        if _CORRUPTION != "stale-count":
                            for v in wave:
                                if indptr[v + 1] > indptr[v]:
                                    node_sends[v] += 1
                    wave = improved
                    wave_round = r + 1 if improved else None

                if timed:
                    dt = _perf() - t_round
                    if round_hist is not None:
                        round_hist.observe(dt)
                    if profile is not None:
                        profile.record("columnar.round", dt)
        finally:
            self._store(d, hops, parent, wave, wave_round)
            _flush(self, msg_count, 1)  # (d,) payloads: 1 word each
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                net._published = publish_run_metrics(
                    registry, metrics, state=net._published)
        return metrics

    # -- one round ---------------------------------------------------------

    def _round(self, d, hops, parent, wave, r):
        """Round *r*'s sends + deliveries + relaxations as vector
        operations.  Returns ``(messages_sent, improved_nodes)`` with
        ``improved_nodes`` sorted ascending (the next wavefront)."""
        senders = np.asarray(wave, dtype=np.int64)
        starts = self._np_indptr[senders]
        counts = self._np_indptr[senders + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return 0, []
        # CSR gather: the round's whole (src, dst, w) edge batch.
        offs = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(counts)[:-1])), counts)
        edges = np.arange(total, dtype=np.int64) + offs
        srcs = np.repeat(senders, counts)
        dsts = self._np_heads[edges]
        cand = d[srcs] + self._np_weights[edges]
        self._np_edge_msgs[edges] += 1
        # Scatter-min relaxation.  The reference fold (ascending-src
        # inbox, strict improvement) leaves the parent slot at the
        # *first* sender that reached the final minimum, i.e. the
        # minimum sender id over the argmin set.
        best = np.full(self.n, np.inf)
        np.minimum.at(best, dsts, cand)
        hit = cand == best[dsts]
        win_parent = np.full(self.n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(win_parent, dsts[hit], srcs[hit])
        (imp,) = np.nonzero(best < d)
        if len(imp):
            d[imp] = best[imp]
            hops[imp] = r
            parent[imp] = win_parent[imp]
        return total, imp.tolist()


#: Kernel registry: the columnar engine takes the bulk path iff some
#: kernel's (memoized, static) ``matches`` accepts the network, the
#: cached kernel's (per-run, dynamic) ``revalidate`` agrees, and no
#: hook is attached.  Future vectorizable program families register
#: here (the pipelined kernel self-registers at the import below).
COLUMNAR_KERNELS: List[Type[_RelaxationKernel]] = [_RelaxationKernel]

#: Sentinel distinguishing "eligibility never scanned" from a cached
#: negative verdict (``None`` is itself a valid cache value).
_UNSET: Any = object()


class ColumnarNetwork(FastNetwork):
    """Drop-in columnar backend (see the module docstring).

    Same constructor, validation errors, hooks, resumption, and
    ``run(max_rounds) -> RunMetrics`` contract as the reference
    :class:`~repro.congest.network.Network`; programs the bulk engine
    cannot vectorize -- and any hooked run -- execute on the inherited
    event-driven loop, so ``backend="columnar"`` is always honored and
    never silently diverges.
    """

    #: Memoized static-eligibility verdict (a kernel instance or None);
    #: class attribute as the default, shadowed per instance on first
    #: scan.  Programs and topology are fixed at construction, so the
    #: verdict can never go stale.
    _kernel_cache: Any = _UNSET
    #: Number of O(n + m) eligibility scans performed -- pinned by the
    #: memoization regression test (one per network, however many
    #: run() re-entries and resumptions follow).
    _eligibility_scans: int = 0

    def _columnar_kernel(self):
        """The bulk kernel for this network, or ``None`` (generic loop).

        The bulk path requires the zero-hook configuration: a fault
        plan, tracer, ring recorder, or monitor observes (or perturbs)
        per-envelope events that the bulk engine deliberately never
        materializes, so those runs take the instrumented loop with
        reference semantics.  ``registry`` and HOT profiling only need
        per-round timing and are honored on both paths.

        Hooks are re-checked at every entry (they can be attached to an
        existing network between runs); the O(n + m) static scan over
        programs and edges runs once per network, and the memoized
        kernel's cheap :meth:`~_RelaxationKernel.revalidate` carries
        the remaining per-run conditions.
        """
        if (self.fault_injector is not None or self.tracer is not None
                or self.trace is not None or self.monitor is not None):
            return None
        kernel = self._kernel_cache
        if kernel is _UNSET:
            self._eligibility_scans += 1
            kernel = None
            for kernel_cls in COLUMNAR_KERNELS:
                if kernel_cls.matches(self):
                    kernel = kernel_cls(self)
                    break
            self._kernel_cache = kernel
        if kernel is not None and not kernel.revalidate():
            return None
        return kernel

    def run(self, max_rounds: int):
        kernel = self._columnar_kernel()
        if kernel is None:
            return FastNetwork.run(self, max_rounds)
        return kernel.run(max_rounds)


# The pipelined (h, k)-SSP bulk kernel lives in its own module (it is
# as large as this one) and self-registers into COLUMNAR_KERNELS at the
# end of its import -- a shape that stays import-order-safe whichever
# of the two modules is imported first.
from . import columnar_pipelined as _columnar_pipelined  # noqa: E402,F401

__all__ = [
    "COLUMNAR_KERNELS",
    "CORRUPTION_MODES",
    "ColumnarNetwork",
    "numpy_enabled",
    "set_corruption",
]
