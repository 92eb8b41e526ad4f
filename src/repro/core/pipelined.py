"""Algorithm 1 -- the pipelined (h, k)-SSP algorithm (paper, Section II-A).

Given a set ``S`` of ``k`` sources, a hop bound ``h``, and a bound
``Delta`` on the shortest-path distances reachable within ``h`` hops,
every node ``v`` computes, for every source ``x``, the pair
``(delta(x, v), minhop(x, v))`` -- the exact shortest-path distance and
the minimum hop count among shortest paths -- whenever
``minhop(x, v) <= h``, together with the last edge (parent) on such a
path, in at most

    ceil(2 * sqrt(Delta h k) + h + k)        rounds (Theorem I.1 / Lemma II.14)

with every node sending at most one O(log n)-word message per round.

Output semantics.  "(h, k)-SSP" here is the paper's notion, *not* the
h-hop dynamic-programming distance: a node whose shortest paths from x
all need more than ``h`` hops either learns nothing for x or learns the
weight of some genuine <= h-hop path (never anything below the h-hop DP
optimum).  This is exactly the contract CSSSP construction needs
(Definition III.3 and the Figure 1 caption make the same restriction) and
the contract the single-estimate short-range Algorithm 2 provides; with
``h = n - 1`` it degenerates to exact APSP/k-SSP.  See DESIGN.md sec. 6
and :func:`repro.graphs.validation.assert_weak_h_hop_contract`.

How the machinery fits together (reconstruction notes, DESIGN.md sec. 6):

* Step 1 (send): the entry at position ``pos`` with ``ceil(kappa + pos)
  == r`` fires in round ``r``; the sortedness of the list makes that
  entry unique per round, which the implementation asserts -- the
  CONGEST one-message constraint is self-enforcing.  The message carries
  ``(d, l, x, flag_sp, nu)`` with ``nu`` computed at send time, over the
  node's out-arcs only (the algorithm needs no bidirectional channels,
  Section I-B).
* Steps 3-13 (receive): every incoming message is rebuilt as a candidate
  with ``d = d- + w(y, v)``, ``l = l- + 1``, ``kappa = d * gamma + l``
  -- *including* candidates whose paths exceed ``h`` hops: they pad list
  positions, which Invariant 1 (Lemma II.12 via Corollary II.8) counts.
* flag-d* marks the entry with minimum ``(d, kappa)`` for its source over
  the whole list (the paper's verbatim definition; no hop gate).  It is
  the list's per-source holder ``list_v.flagged[x]``, not a field of the
  entry (an entry is the plain tuple ``(kappa, d, x, l, parent)``,
  :mod:`repro.core.entries`).  The holder's ``d``, ``l`` and ``parent``
  are the node's ``d*_x``, ``l*_x`` and Step 9's tie-break, so a node's
  whole state is its list plus the round of its last output-relevant
  promotion.  The final flag-d* holder per source is never demoted,
  never evicted, and always fires -- correctness of the output rides on
  exactly this chain.
* Non-SP candidates pass the Step 13 quota gate iff fewer than ``nu-``
  same-source entries sit at-or-below their key; they exist to pad
  positions so that the send schedule stays ahead of arrivals.
* ``Insert`` evicts the closest non-SP same-source entry above the
  insertion point when the source's entry count exceeds the Invariant 2
  budget ``floor(sqrt(Delta h / k)) + 1``; an SP replacement that wins
  only the parent-id tie-break removes its fully dominated twin outright.
* Nodes stop sending after the cutoff round of Lemma II.14 -- by then
  every guaranteed output entry has arrived, so the remaining scheduled
  sends are dead weight the real algorithm would also skip (each node
  knows ``h``, ``k``, ``Delta`` and hence the cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bounds import theorem11_hk_ssp
from ..congest import Envelope, NodeContext, Program, RunMetrics
from ..congest.events import TraceRecorder
from ..perf.backends import make_network
from ..graphs.digraph import WeightedDigraph
from ..graphs.reference import weak_delta_bound
from .entries import Entry
from .keys import gamma_for, key_of
from .node_list import NodeList

INF = float("inf")


class PipelinedSSPProgram(Program):
    """Per-node state machine of Algorithm 1."""

    def __init__(self, v: int, sources: Sequence[int], h: int, gamma: float,
                 *, cutoff_round: Optional[int] = None,
                 eviction: str = "budget",
                 trace: Optional[TraceRecorder] = None) -> None:
        self.v = v
        self.sources = sources
        self.h = h
        self.gamma = gamma
        self.cutoff_round = cutoff_round
        self.trace = trace
        #: Invariant 2 budget: at most floor(h/gamma) + 1 = floor(
        #: sqrt(Delta h / k)) + 1 entries per source (Lemma II.11);
        #: Insert evicts only when an insertion would exceed it.  The
        #: "always" ablation (benchmark E14) evicts on every non-SP
        #: insert instead -- the literal pseudo-code reading; under the
        #: final output semantics both are correct (the flag-d* chain is
        #: eviction-immune) and the policies trade list size against
        #: padding, which E14 measures.
        if eviction not in ("budget", "always"):
            raise ValueError(f"unknown eviction policy {eviction!r}")
        self.budget = None if eviction == "always" else int(h / gamma) + 1

        #: The list and its flag-d* holders: per source, the entry with
        #: the smallest (d, kappa) ever inserted (any hop count), whose
        #: (d*, l*) converges to (delta(x, v), minhop(x, v)) and is the
        #: output when l* <= h (see module docstring).
        self.list_v = NodeList()
        self.last_sp_update_round = 0

    # -- initialization (paper: 'Initialization ... at node v') ----------

    def on_start(self, ctx: NodeContext) -> None:
        if self.v in self.sources:
            self.list_v.insert_sp((key_of(0, 0, self.gamma), 0, self.v, 0,
                                   None))

    # -- Steps 1-2: send ---------------------------------------------------

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self.cutoff_round is not None and r > self.cutoff_round:
            return
        list_v = self.list_v
        z = list_v.fire_at(r)
        if z is None:
            return
        nu = list_v.nu_of(z)
        _kappa, d, x, l, _parent = z
        ctx.broadcast_out((d, l, x, z is list_v.flagged.get(x), nu))
        if self.trace is not None:
            self.trace.emit(r, self.v, "send", d, l, x, nu)

    # -- Steps 3-13: receive -------------------------------------------------

    def on_receive(self, ctx: NodeContext, r: int, inbox: List[Envelope]) -> None:
        # Per-envelope *order* is semantic (the Step 13 quota gate and the
        # flag-d* tie-breaks read list state mutated by earlier envelopes
        # of the same round), so arrivals are folded one by one, in inbox
        # order.
        fold = self.fold
        gamma = self.gamma
        weight_in = ctx.weight_in
        for env in inbox:
            # Senders broadcast over out-arcs only, so y -> v is an arc.
            y = env.src
            d_in, l_in, x, _flag_in, nu_in = env.payload
            d = d_in + weight_in(y)
            l = l_in + 1
            fold(r, y, d, l, key_of(d, l, gamma), x, nu_in)

    def fold(self, r: int, y: int, d: int, l: int, kappa: float, x: int,
             nu_in: int) -> bool:
        """Steps 8-13 for one arrival: the candidate ``(d, l)`` with key
        *kappa* for source *x*, relayed by neighbour *y*, whose send
        advertised ``nu_in``.  Returns whether ``list_v`` changed.

        The one implementation of list maintenance: :meth:`on_receive`
        calls it per envelope, and the columnar kernel
        (:mod:`repro.perf.columnar_pipelined`) per arrival its reject
        pass keeps.  An entry is built only for an admitted arrival."""
        # flag-d* marks the entry with the smallest (d, kappa) among
        # *all* entries for the source on this list (the paper's
        # verbatim definition) -- no hop gate here: a cheap long-hop path
        # still wins the flag.  This matters: it is what shields the
        # (d, l)-Pareto entries (larger d, fewer hops) that downstream
        # nodes need for *their* h-hop answers from Insert's eviction
        # (the Figure 1 phenomenon; see tests/test_pipelined.py).
        list_v = self.list_v
        old = list_v.flagged.get(x)
        # Step 9: the arrival replaces the holder (none: d* unset) with a
        # strictly smaller distance; or an equal one and strictly fewer
        # hops; or equal both and a smaller parent id.  The parent-id
        # tie-break is what makes the 2h-hop run produce *consistent*
        # trees (Section III-A).  Only the source's own (0, 0) entry
        # has no parent, and no arrival (l >= 1) ties its hops.
        if old is None or d < old[1] or (d == old[1] and (
                l < old[3] or (l == old[3] and y < old[4]))):
            # Steps 9-11: new flag-d* holder.  Inserting the SP entry
            # does not evict (the eviction clause of Insert applies to
            # non-SP additions, which are the only ones admitted by a
            # quota rather than by an improvement).
            if self.trace is not None:
                self.trace.emit(r, self.v, "promote", x, d, l)
            z = (kappa, d, x, l, y)
            pos = list_v.insert_sp(z)  # z is the holder now; old is not
            if old is not None:
                if old[0] == kappa and old[1] == d:
                    # Parent-id tie-break replacement: the demoted twin
                    # has the same sort key (kappa, d, x) and is
                    # dominated -- drop it outright (it sits *below* the
                    # newcomer, out of reach of the closest-above
                    # eviction, and would leak past the Invariant 2
                    # budget).
                    list_v.remove(old)
                else:
                    budget = self.budget
                    list_v.evict_over_budget(
                        z, 0 if budget is None else budget)
            if l <= self.h:
                # an output-relevant improvement: Theorem I.1 bounds the
                # round by which the last of these happens
                self.last_sp_update_round = r
            self._note_insert(r, z, pos)
            return True
        # Step 13: non-SP quota gate, then Insert with eviction of the
        # closest non-SP same-source entry above.
        hit = list_v.quota_insert(kappa, d, l, x, y, nu_in, self.budget)
        if hit is None:
            return False
        z, pos, _removed = hit
        self._note_insert(r, z, pos)
        return True

    def _note_insert(self, r: int, z: Entry, pos: int) -> None:
        kappa, d, x, l, _parent = z
        if self.trace is not None:
            self.trace.emit(r, self.v, "insert", d, l, x, kappa, pos)
        # Invariant 1 (Lemma II.12): an entry is added strictly before the
        # round it is scheduled to fire in, ceil(kappa + pos) (inlined:
        # this runs on every insert of every backend).
        due = math.ceil(kappa + pos)
        if r >= due:
            raise AssertionError(
                f"Invariant 1 violated at node {self.v}, round {r}: "
                f"inserted {z!r} at pos {pos} with ceil(kappa+pos)={due}")

    # -- scheduling --------------------------------------------------------

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        nxt = self.list_v.next_fire_after(r)
        if nxt is None:
            return None
        if self.cutoff_round is not None and nxt > self.cutoff_round:
            return None
        return nxt

    # -- output -------------------------------------------------------------

    def output(self, ctx: NodeContext) -> Dict[int, Tuple[int, int, Optional[int]]]:
        flagged = self.list_v.flagged
        out = {}
        for x in self.sources:
            z = flagged.get(x)
            if z is not None and z[3] <= self.h:
                out[x] = (int(z[1]), int(z[3]), z[4])
        return out

    # -- checkpoint protocol (repro.recovery.checkpoint) -----------------

    def snapshot_state(self) -> Dict[str, object]:
        """The mutable state as plain values the checkpoint JSON codec
        encodes: ``list_v`` in list order, one ``[kappa, d, l, x,
        flag_sp, parent]`` row per entry (``flag_sp`` true for its
        source's flag-d* holder), plus the last output-relevant
        promotion round.  Detached from the live program."""
        flagged = self.list_v.flagged
        rows = []
        for e in self.list_v:
            kappa, d, x, l, parent = e
            rows.append([kappa, d, l, x, e is flagged.get(x), parent])
        return {
            "entries": rows,
            "last_sp_round": self.last_sp_update_round,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`: a fresh ``list_v`` holding
        fresh entries, each source's flagged row its flag-d* holder --
        also on a program whose ``on_start`` never ran
        (``restore_network`` restores into those).  *state* is left
        untouched, so it can be restored again."""
        list_v = NodeList()
        flagged: Dict[int, Entry] = {}
        for kappa, d, l, x, flag_sp, parent in state["entries"]:
            e = (kappa, d, x, l, parent)
            # Entries arrive in list order and an insert goes above its
            # equal keys, so the rebuilt order is the saved one.
            # insert_sp is the insert without eviction; the holders are
            # set from the flagged rows below.
            list_v.insert_sp(e)
            if flag_sp:
                flagged[x] = e
        list_v.flagged = flagged
        self.list_v = list_v
        self.last_sp_update_round = state["last_sp_round"]


@dataclass
class HKSSPResult:
    """Result of one Algorithm 1 execution.

    ``dist[x][v]`` / ``hops[x][v]`` / ``parent[x][v]`` describe the path
    from source x to node v under the paper's (h, k)-SSP semantics:
    guaranteed to be ``(delta(x, v), minhop(x, v), parent)`` whenever some
    shortest path from x to v has at most h hops; possibly a genuine
    <= h-hop path weight otherwise; ``inf``/``None`` when nothing with
    <= h hops was learned.  With ``h = n - 1`` this is exact APSP.
    """

    sources: Tuple[int, ...]
    h: int
    k: int
    delta: int
    gamma: float
    dist: Dict[int, List[float]]
    hops: Dict[int, List[float]]
    parent: Dict[int, List[Optional[int]]]
    metrics: RunMetrics
    round_bound: int
    #: Last round in which any node improved a shortest-path estimate --
    #: the quantity Theorem I.1 bounds.
    last_sp_update_round: int
    #: Largest ``list_v`` and largest per-source entry count at any
    #: node, read off the final lists: no fold shrinks a list or a
    #: source's count (every removal follows an insert for the same
    #: source), so the final sizes are the run's largest.
    max_list_len: int
    max_entries_per_source: int


def run_hk_ssp(graph: WeightedDigraph, sources: Sequence[int], h: int,
               delta: Optional[int] = None, *,
               gamma: Optional[float] = None,
               cutoff: bool = True,
               eviction: str = "budget",
               trace: Optional[TraceRecorder] = None,
               max_rounds: Optional[int] = None,
               fault_plan: Optional[object] = None,
               monitor: Optional[object] = None,
               tracer: Optional[object] = None,
               registry: Optional[object] = None,
               record_window: int = 0,
               backend: Optional[str] = None) -> HKSSPResult:
    """Run Algorithm 1 on *graph* for the source set *sources*.

    Parameters
    ----------
    h:
        Hop bound of the (h, k)-SSP instance.
    delta:
        A bound on the h-hop shortest-path distances from the sources.
        The CONGEST algorithm takes ``Delta`` as a promise; if omitted, the
        exact value is computed with the sequential oracle (fine for
        experiments -- the algorithm only uses it through ``gamma`` and
        the cutoff round).
    cutoff:
        Stop sends after the Lemma II.14 round bound (the real algorithm's
        termination rule).  Disable to observe natural quiescence.
    fault_plan / monitor / record_window:
        Forwarded to :class:`~repro.congest.network.Network`.  **Caveat**:
        Algorithm 1's schedule ``ceil(kappa + pos)`` *is* its correctness
        mechanism -- Invariants 1 and 2 assume every sent entry arrives in
        its send round, so the algorithm is fundamentally not drop- or
        delay-tolerant, and the ack/retransmit wrapper cannot help (a
        retransmitted entry arrives off-schedule and the pipelining
        argument collapses).  Fault injection here is for *observing* the
        failure modes; attach ``monitor=InvariantMonitor(pipelined_invariants())``
        to catch the moment the schedule breaks.
    tracer / registry:
        Observability hooks (:class:`repro.obs.Tracer` /
        :class:`repro.obs.MetricsRegistry`).  The run executes under a
        ``pipelined`` span carrying ``(h, k, delta, rounds)``; the
        tracer doubles as the program-level ``trace`` recorder (sends,
        inserts, flag-d* promotions) unless an explicit ``trace`` is
        given, and both hooks are forwarded to the
        :class:`~repro.congest.network.Network`.
    backend:
        Simulator backend: any :data:`~repro.perf.backends.BACKENDS`
        name (``"reference"``, ``"columnar"``), or ``None`` for the
        ambient default (see :mod:`repro.perf.backends`).  Both backends
        honor every hook and are differentially pinned to identical
        results.

    Returns an :class:`HKSSPResult` (see its docstring for the exact
    output contract); validation against the sequential oracles is the
    caller's (tests'/benchmarks') job via
    :func:`repro.graphs.validation.assert_weak_h_hop_contract`.
    """
    sources = tuple(dict.fromkeys(sources))  # dedupe, keep order
    if not sources:
        raise ValueError("need at least one source")
    for s in sources:
        if not (0 <= s < graph.n):
            raise ValueError(f"source {s} out of range")
    if h < 1:
        raise ValueError(f"hop bound must be >= 1, got {h}")
    k = len(sources)
    if delta is None:
        delta = weak_delta_bound(graph, sources, h)
    g = gamma if gamma is not None else gamma_for(h, k, delta)
    bound = theorem11_hk_ssp(h, k, delta)
    cutoff_round = bound if cutoff else None

    if max_rounds is None:
        # Safety net well past any legitimate activity: the largest key of
        # any insertable entry is h*W*gamma + h, and positions are bounded
        # by Invariant 2.
        max_key = h * graph.max_weight * g + h
        max_pos = int(k * (h / g + 1)) + k + 1
        max_rounds = int(math.ceil(max_key + max_pos)) + bound + 16

    if trace is None and tracer is not None:
        # A Tracer is a TraceRecorder: program-level emits (sends,
        # inserts, promotions) land in its bounded ring.
        trace = tracer  # type: ignore[assignment]

    programs: List[PipelinedSSPProgram] = []

    def factory(v: int) -> PipelinedSSPProgram:
        p = PipelinedSSPProgram(v, sources, h, g, cutoff_round=cutoff_round,
                                eviction=eviction, trace=trace)
        programs.append(p)
        return p

    net = make_network(graph, factory, backend=backend,
                       fault_plan=fault_plan, monitor=monitor,
                       tracer=tracer, registry=registry,
                       record_window=record_window)
    if tracer is not None:
        with tracer.span("pipelined", h=h, k=k, delta=delta) as sp:
            metrics = net.run(max_rounds=max_rounds)
            sp.set(rounds=metrics.rounds)
    else:
        metrics = net.run(max_rounds=max_rounds)

    dist: Dict[int, List[float]] = {x: [INF] * graph.n for x in sources}
    hops: Dict[int, List[float]] = {x: [INF] * graph.n for x in sources}
    parent: Dict[int, List[Optional[int]]] = {x: [None] * graph.n for x in sources}
    for v in range(graph.n):
        for x, (d, l, p) in net.output_of(v).items():
            dist[x][v] = d
            hops[x][v] = l
            parent[x][v] = p

    return HKSSPResult(
        sources=sources, h=h, k=k, delta=delta, gamma=g,
        dist=dist, hops=hops, parent=parent, metrics=metrics,
        round_bound=bound,
        last_sp_update_round=max((p.last_sp_update_round for p in programs),
                                 default=0),
        max_list_len=max((len(p.list_v) for p in programs), default=0),
        max_entries_per_source=max(
            (p.list_v.max_entries_any_source() for p in programs),
            default=0),
    )


def run_apsp(graph: WeightedDigraph, delta: Optional[int] = None,
             **kwargs) -> HKSSPResult:
    """Theorem I.1(ii): APSP via Algorithm 1 with ``S = V`` and ``h = n-1``
    (a minimal-hop shortest path is simple).  Runs in ``2 n sqrt(Delta) +
    2 n`` rounds."""
    h = max(1, graph.n - 1)
    return run_hk_ssp(graph, range(graph.n), h, delta, **kwargs)


def run_k_ssp(graph: WeightedDigraph, sources: Sequence[int],
              delta: Optional[int] = None, **kwargs) -> HKSSPResult:
    """Theorem I.1(iii): k-SSP via Algorithm 1 with ``h = n-1``:
    ``2 sqrt(Delta k n) + n + k`` rounds."""
    h = max(1, graph.n - 1)
    return run_hk_ssp(graph, sources, h, delta, **kwargs)
