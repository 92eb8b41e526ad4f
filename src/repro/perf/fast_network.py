"""The per-message event-driven loop of the columnar engine.

:class:`FastNetwork` is the loop :class:`~repro.perf.columnar.ColumnarNetwork`
inherits and runs for every program no bulk kernel covers and for every
hooked run; it is not a registered backend of its own.  It implements
the exact ``run(max_rounds) -> RunMetrics`` contract of
:class:`repro.congest.network.Network` -- same constructor signature,
same validation errors, same resumption semantics, same post-mortem on
:class:`~repro.congest.network.RoundLimitExceeded` -- but replaces the
reference backend's per-round O(n) scans with an event-driven worklist,
so a round costs O(active nodes) instead of O(n).

Where the time goes (and comes back)
------------------------------------
The reference loop pays, *per executed round*:

* an O(n) list comprehension to collect pending schedule entries plus a
  ``min`` over it, and
* an O(n) pass over every node to find the scheduled senders,

regardless of how many nodes are actually active.  Under the pipelined
schedule most nodes are quiescent in most rounds (entries fire at
``ceil(kappa + pos)``, so activity thins out as the run drains), which
makes those scans the dominant cost at interesting ``n``.  The loop
instead keeps a lazy min-heap of ``(round, node)`` schedule entries
next to a ``sched`` array holding each node's current schedule;
stale heap entries (from reschedules) are dropped when they surface.
Because heap entries are ``(round, node)`` tuples, equal-round pops come
out in increasing node order -- exactly the reference backend's
``for v in range(n)`` sender order, which keeps inbox contents and
tie-breaks bit-identical.

Accounting is also tightened without changing what is counted: message /
word totals accumulate in locals and are flushed to :class:`RunMetrics`
in a ``finally`` (so interrupted runs still report exactly what they
did), and the per-round channel-load table is keyed by the packed slot
``src * n + dst`` instead of a ``(src, dst)`` tuple (no per-message
tuple allocation; the persistent ``channel_messages`` Counter keeps its
public tuple keys).

Equivalence is *pinned*, not hoped for: ``tests/differential.py`` runs
the loop and the reference on the same seeded programs -- including
fault-injected, monitored, traced, and event-recorded runs -- and
asserts identical outputs, round counts, message statistics, fault
statistics, trace event streams, and post-mortems, over
Hypothesis-generated graphs and the committed golden fixtures (see
docs/PERFORMANCE.md).

Hook support
------------
All four network-side hooks of the reference backend are honored, at
the same event points with the same arguments:

* ``fault_plan`` -- the :class:`~repro.faults.plan.FaultInjector`
  ``offer`` / ``take_due`` / ``deliverable`` protocol runs in the
  delivery phase exactly as in the reference loop, and in-flight
  (delayed / duplicated) envelopes act as wake-up sources: every
  scheduling decision takes ``min`` over the worklist heap *and*
  ``injector.earliest_in_flight()``, mirroring the reference backend's
  ``pending`` list, so a delivery-only round executes at the same round
  number on both backends;
* ``monitor`` -- called after each executed round's receive phase with
  the sent-or-received node ids, post-mortem attached to violations;
* ``tracer`` -- ``net.send`` per enforced message, ``net.round`` per
  executed round, and (via the injector) one ``fault`` event per
  injected fault, in the reference backend's emission order;
* ``record_window > 0`` -- the same bounded
  :class:`~repro.congest.events.RingTraceRecorder` on ``self.trace``
  that the post-mortem builder reads;
* ``registry`` -- per-round wall-clock histogram + final
  ``publish_run_metrics`` mirror, delta-based across resumes.

One delivery loop serves every configuration: each hook costs one local
``is None`` test per message when it is not attached.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from time import perf_counter as _perf
from typing import Any, Callable, Dict, List, Optional

from ..congest.message import CongestionError, Envelope, MessageSizeError
from ..congest.metrics import RunMetrics
from ..congest.network import Network, RoundLimitExceeded
from ..congest.node import NodeContext, Program
from ..obs.profiling import HOT as _HOT

_SRC = attrgetter("src")


class FastNetwork:
    """The event-driven loop, a drop-in for
    :class:`repro.congest.network.Network`.

    Accepts the same constructor arguments, raises the same validation
    errors, and honors the same hooks (``fault_plan``, ``monitor``,
    ``tracer``, ``registry``, ``record_window``); see the reference
    class for parameter semantics.
    """

    def __init__(self, graph: Any,
                 program_factory: Callable[[int], Program],
                 *,
                 max_message_words: int = 8,
                 channel_capacity: int = 1,
                 fault_plan: Any = None,
                 monitor: Any = None,
                 tracer: Any = None,
                 registry: Any = None,
                 record_window: int = 0) -> None:
        n = getattr(graph, "n", None)
        if not isinstance(n, int) or n < 1:
            raise ValueError(
                f"graph must have at least one node (graph.n >= 1), got "
                f"n={n!r}: a CONGEST network needs processors to simulate")
        if max_message_words < 1:
            raise ValueError(
                f"max_message_words must be >= 1 (a message must be able "
                f"to carry at least one O(log n)-bit word), got "
                f"{max_message_words}")
        if channel_capacity < 1:
            raise ValueError(
                f"channel_capacity must be >= 1 (each directed channel "
                f"carries at least one message per round in CONGEST), got "
                f"{channel_capacity}")
        if record_window < 0:
            raise ValueError(
                f"record_window must be >= 0 rounds, got {record_window}")
        self.graph = graph
        self.n = n
        self.max_message_words = max_message_words
        self.channel_capacity = channel_capacity
        self.monitor = monitor
        self.tracer = tracer
        self.registry = registry
        self.record_window = record_window
        # Reuse the reference backend's plan normalisation: a trivial
        # (all-zero) FaultPlan takes the zero-overhead path, and the
        # same TypeError fires on bad arguments.
        self.fault_injector = Network._make_injector(fault_plan)
        if self.fault_injector is not None and tracer is not None:
            self.fault_injector.tracer = tracer
        self.trace = None
        if record_window > 0:
            from ..congest.events import RingTraceRecorder
            self.trace = RingTraceRecorder(record_window)
        self.programs: List[Program] = []
        self.contexts: List[NodeContext] = []
        for v in range(n):
            self.programs.append(program_factory(v))
            self.contexts.append(NodeContext(
                node=v, n=n,
                out_edges=graph.out_edges(v),
                in_edges=graph.in_edges(v),
                comm_neighbors=graph.comm_neighbors(v),
            ))
        self.metrics = RunMetrics()
        self._started = False
        #: Last processed round; ``run`` resumes from here (same
        #: absolute-``max_rounds`` re-run contract as the reference).
        self._round = 0
        self._published = None

    # ------------------------------------------------------------------

    def _post_mortem(self, reason: str, r: int,
                     next_round: Optional[List[Optional[int]]]):
        from ..faults.watchdog import build_post_mortem
        return build_post_mortem(self, reason, r, next_round)

    def run(self, max_rounds: int) -> RunMetrics:
        """Execute rounds until every node is quiescent.

        Identical contract to :meth:`repro.congest.network.Network.run`,
        including re-entry: ``run`` may be called again after a
        :class:`RoundLimitExceeded`, ``max_rounds`` is an *absolute*
        round number, programs start exactly once, and ``metrics``
        accumulates without double-counting.
        """
        n = self.n
        programs, contexts = self.programs, self.contexts
        injector, monitor, recorder = \
            self.fault_injector, self.monitor, self.trace
        tracer, registry = self.tracer, self.registry
        profile = _HOT.session
        timed = registry is not None or profile is not None
        round_hist = None if registry is None else registry.histogram(
            "congest.round_wall_s", scale=1e-6)
        if not self._started:
            for v in range(n):
                programs[v].on_start(contexts[v])
            self._started = True

        # The worklist: sched[v] is node v's current scheduled round
        # (None = quiescent); heap holds (round, v) entries, possibly
        # stale -- an entry is live iff it matches sched[v].  Rebuilt
        # from the programs at every run() entry, like the reference
        # backend re-derives its schedule on resumption.  In-flight
        # envelopes held by the fault injector are the other wake-up
        # source; the next round is the min over both.
        sched: List[Optional[int]] = [None] * n
        heap: List = []
        base = self._round
        for v in range(n):
            nr = programs[v].next_active_round(contexts[v], base)
            sched[v] = nr
            if nr is not None:
                heap.append((nr, v))
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop

        metrics = self.metrics
        node_sends = metrics.node_sends
        chmsg = metrics.channel_messages
        word_budget = self.max_message_words
        capacity = self.channel_capacity
        prev_r = base
        # Message totals accumulate in locals and flush in the finally
        # block, so an interrupted run still reports exactly the load it
        # offered before failing.
        msg_count = 0
        words_total = 0
        max_msg_words = metrics.max_message_words
        try:
            while True:
                # Surface the next live schedule entry (lazy deletion).
                while heap and sched[heap[0][1]] != heap[0][0]:
                    pop(heap)
                if injector is None:
                    if not heap:
                        break
                    r = heap[0][0]
                else:
                    due = injector.earliest_in_flight()
                    if heap:
                        r = heap[0][0] if due is None \
                            else min(heap[0][0], due)
                    elif due is not None:
                        r = due
                    else:
                        break  # quiescent: nothing scheduled or in flight
                if r > max_rounds:
                    raise RoundLimitExceeded(
                        f"no quiescence by round {max_rounds}; "
                        f"next scheduled activity at round {r}",
                        self._post_mortem("round limit exceeded", max_rounds,
                                          list(sched)))
                if r > prev_r + 1:
                    metrics.skipped_rounds += r - prev_r - 1
                prev_r = r
                self._round = r
                if timed:
                    t_round = _perf()

                # --- send phase: exactly the nodes scheduled at r, in
                # increasing node order (heap pops sort (r, v) by v) ----
                senders: List[int] = []
                envelopes: List[Envelope] = []
                while heap and heap[0][0] == r:
                    _, v = pop(heap)
                    if sched[v] != r:
                        continue  # stale or duplicate entry
                    sched[v] = None  # consumed; rescheduled below
                    ctx = contexts[v]
                    ctx._begin_round(r)
                    programs[v].on_send(ctx, r)
                    out = ctx._end_send()
                    if out:
                        envelopes.extend(out)
                        node_sends[v] += 1
                    senders.append(v)

                # --- CONGEST enforcement + delivery --------------------
                inboxes: Dict[int, List[Envelope]] = {}
                # Per-round channel load, keyed by the packed slot
                # src * n + dst (no tuple allocation per message).  The
                # recorder/tracer emissions and the injector protocol run
                # at the reference backend's exact event points.
                deliveries: List[Envelope] = []
                channel_load: Dict[int, int] = {}
                for env in envelopes:
                    words = env.words
                    if words > word_budget:
                        raise MessageSizeError(
                            f"round {r}: node {env.src} sent a "
                            f"{words}-word message (budget "
                            f"{word_budget}): {env.payload!r}")
                    dst = env.dst
                    slot = env.src * n + dst
                    load = channel_load.get(slot, 0) + 1
                    if load > capacity:
                        raise CongestionError(
                            f"round {r}: channel {(env.src, dst)} "
                            f"carries {load} messages (capacity "
                            f"{capacity})")
                    channel_load[slot] = load
                    msg_count += 1
                    words_total += words
                    if words > max_msg_words:
                        max_msg_words = words
                    chmsg[(env.src, dst)] += 1
                    if recorder is not None:
                        recorder.emit(r, env.src, "send", dst, env.payload)
                    if tracer is not None:
                        tracer.emit(r, env.src, "net.send", dst, words)
                    if injector is None:
                        box = inboxes.get(dst)
                        if box is None:
                            inboxes[dst] = [env]
                        else:
                            box.append(env)
                    else:
                        # The fault model acts after enforcement and
                        # accounting: metrics measure offered load.
                        deliveries.extend(injector.offer(env, r, load - 1))
                if injector is not None:
                    deliveries.extend(injector.take_due(r))
                    for env in deliveries:
                        if injector.deliverable(env, r):
                            inboxes.setdefault(env.dst, []).append(env)
                if envelopes or deliveries:
                    metrics.active_rounds += 1
                    if r > metrics.rounds:
                        metrics.rounds = r

                # --- receive phase + reschedule ------------------------
                if inboxes:
                    receivers = sorted(inboxes)
                    for v in receivers:
                        inbox = inboxes[v]
                        inbox.sort(key=_SRC)  # stable: sender order kept
                        if recorder is not None:
                            for env in inbox:
                                recorder.emit(r, v, "recv", env.src,
                                              env.payload)
                        programs[v].on_receive(contexts[v], r, inbox)
                    # Deterministic reschedule order: senders in
                    # increasing node order, then receivers in
                    # increasing node order -- identical to the
                    # reference backend's iteration.
                    touched = dict.fromkeys(senders)
                    touched.update(dict.fromkeys(receivers))
                else:
                    receivers = []
                    touched = dict.fromkeys(senders)
                for v in touched:
                    nr = programs[v].next_active_round(contexts[v], r)
                    if nr != sched[v]:
                        sched[v] = nr
                        if nr is not None:
                            push(heap, (nr, v))

                if tracer is not None:
                    tracer.emit(r, -1, "net.round", len(senders),
                                len(receivers))
                if timed:
                    dt = _perf() - t_round
                    if round_hist is not None:
                        round_hist.observe(dt)
                    if profile is not None:
                        profile.record("network.round", dt)

                if monitor is not None and touched:
                    try:
                        monitor.after_round(self, r, touched)
                    except Exception as exc:
                        # Attach the post-mortem to whatever the monitor
                        # raised (InvariantViolation has a slot for it)
                        # and let it propagate located, not bare.
                        try:
                            exc.post_mortem = self._post_mortem(
                                f"invariant violation: {exc}", r,
                                list(sched))
                        except AttributeError:
                            pass
                        raise
        finally:
            if msg_count:
                metrics.messages += msg_count
                metrics.words += words_total
            if max_msg_words > metrics.max_message_words:
                metrics.max_message_words = max_msg_words
            if injector is not None:
                metrics.set_fault_stats(injector.stats.as_dict())
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                self._published = publish_run_metrics(
                    registry, metrics, state=self._published)

        return metrics

    # ------------------------------------------------------------------

    # Same core-state protocol as the reference backend -- the worklist
    # heap is rebuilt from the programs at every run() entry, so nothing
    # backend-specific needs serializing and a checkpoint taken on one
    # backend restores onto the other.
    core_state = Network.core_state
    restore_core_state = Network.restore_core_state

    def outputs(self) -> List[Any]:
        """Per-node outputs after :meth:`run` (``Program.output``)."""
        return [self.programs[v].output(self.contexts[v]) for v in range(self.n)]

    def output_of(self, v: int) -> Any:
        return self.programs[v].output(self.contexts[v])
