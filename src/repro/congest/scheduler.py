"""Concurrent execution of many independent CONGEST programs.

Section II-C of the paper runs one short-range instance per source
"simultaneously" using Ghaffari's randomized scheduling framework [10]:
algorithms with individual dilation ``D`` and total per-edge congestion
``C`` compose into one execution of ``O(D + C log n)`` rounds w.h.p.
The framework is a black box in the paper; the paper's own contribution
is the per-instance dilation/congestion of Algorithm 2 (Lemma II.15),
which :mod:`repro.core.short_range` measures directly.

For the composition experiments this module provides two deterministic
stand-ins:

* :func:`compose_time_sliced` -- the trivial schedule: physical round
  ``p`` serves instance ``p mod k``, so instance ``i``'s virtual round
  ``r`` happens at physical round ``k (r - 1) + i + 1``.  Every instance
  executes *exactly* its solo execution; the composition is provably
  correct and costs ``k * max_dilation`` rounds.  (This is the
  baseline [10] improves on.)
* :class:`MultiplexedNetwork` -- a work-conserving FIFO multiplexer: per
  physical round every directed channel carries up to
  ``channel_capacity`` queued messages, in per-sender FIFO order.
  Instances perceive *delays*, so only delay-tolerant programs (ones
  that reschedule work on late arrivals instead of dropping it; see
  ``ShortRangeProgram(delay_tolerant=True)``) may be composed this way.
  Its measured physical rounds land in the ``O(D + C)`` envelope that
  [10] guarantees, which benchmark E5 checks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .message import Envelope
from .metrics import RunMetrics, merge_sequential
from .network import Network, RoundLimitExceeded
from .node import NodeContext, Program


# ---------------------------------------------------------------------------
# Time-sliced composition (exact, provably correct)
# ---------------------------------------------------------------------------

def compose_time_sliced(graph: Any,
                        program_factories: Sequence[Callable[[int], Program]],
                        max_rounds_each: int
                        ) -> Tuple[List[List[Any]], RunMetrics, int]:
    """Run each instance solo and report the exact cost of the
    round-robin time-sliced composition.

    Time slicing maps instance i's virtual round r to physical round
    ``k (r - 1) + i + 1``; since slices never share a physical round,
    each instance's execution is bit-identical to its solo run and the
    physical round count is ``max_i (k (rounds_i - 1) + i + 1)``.
    Returns (per-instance outputs, summed solo metrics, physical rounds).
    """
    k = len(program_factories)
    outputs: List[List[Any]] = []
    metrics: Optional[RunMetrics] = None
    physical = 0
    for i, factory in enumerate(program_factories):
        net = Network(graph, factory)
        m = net.run(max_rounds=max_rounds_each)
        outputs.append(net.outputs())
        metrics = m if metrics is None else merge_sequential(metrics, m)
        if m.rounds:
            physical = max(physical, k * (m.rounds - 1) + i + 1)
    out_metrics = metrics or RunMetrics()
    out_metrics.rounds = physical
    return outputs, out_metrics, physical


# ---------------------------------------------------------------------------
# FIFO multiplexer (work-conserving; needs delay-tolerant programs)
# ---------------------------------------------------------------------------

class _InstanceView:
    """Flat ``programs``/``contexts`` view of one multiplexed instance,
    duck-typed like :class:`Network` for invariant monitors (their
    extractors index ``network.programs[v]``)."""

    __slots__ = ("programs", "contexts")

    def __init__(self, programs: List[Program],
                 contexts: List[NodeContext]) -> None:
        self.programs = programs
        self.contexts = contexts


class MultiplexedNetwork:
    """Run ``k`` independent, delay-tolerant program instances at once.

    Physical round structure: (1) every instance whose earliest pending
    virtual round is due executes its send phase, with the produced
    messages entering per-sender FIFO queues; (2) each directed channel
    transmits up to ``channel_capacity`` queued messages; (3) receivers
    process deliveries and reschedule.  An instance's virtual clock
    advances one round per physical round while it has pending work, so
    a lightly loaded execution degenerates to the plain simulator.

    ``monitor`` / ``tracer`` / ``registry`` mirror the same-named
    :class:`Network` parameters: the monitor's ``after_round`` is called
    once per touched *instance* (with a flat per-instance view), the
    tracer receives ``mux.send`` / ``mux.round`` events, and the
    registry gets a ``mux.queue_backlog`` histogram plus the run's
    metrics mirrored under the ``mux.*`` prefix.
    """

    def __init__(self, graph: Any,
                 program_factories: Sequence[Callable[[int], Program]],
                 *, channel_capacity: int = 1,
                 max_message_words: int = 8,
                 instance_graphs: Optional[Sequence[Any]] = None,
                 monitor: Any = None,
                 tracer: Any = None,
                 registry: Any = None) -> None:
        n = getattr(graph, "n", None)
        if not isinstance(n, int) or n < 1:
            raise ValueError(
                f"graph must have at least one node (graph.n >= 1), got "
                f"n={n!r}")
        if max_message_words < 1:
            raise ValueError(
                f"max_message_words must be >= 1, got {max_message_words}")
        if channel_capacity < 1:
            raise ValueError(
                f"channel_capacity must be >= 1, got {channel_capacity}")
        if not program_factories:
            raise ValueError("need at least one program factory to multiplex")
        self.graph = graph
        self.n = n
        self.k = len(program_factories)
        self.channel_capacity = channel_capacity
        self.max_message_words = max_message_words
        #: Per-instance weight views (Gabow scaling gives every source a
        #: different reduced weight on the same physical link -- the
        #: open-problem setting of the paper's conclusion).  The
        #: *communication* topology is always the shared ``graph``.
        self.instance_graphs = list(instance_graphs) if instance_graphs \
            else [graph] * self.k
        if len(self.instance_graphs) != self.k:
            raise ValueError("need one instance graph per program factory")
        self.programs: List[List[Program]] = []
        self.contexts: List[List[NodeContext]] = []
        for factory, ig in zip(program_factories, self.instance_graphs):
            progs, ctxs = [], []
            for v in range(self.n):
                progs.append(factory(v))
                ctxs.append(NodeContext(
                    node=v, n=self.n,
                    out_edges=ig.out_edges(v),
                    in_edges=ig.in_edges(v),
                    comm_neighbors=graph.comm_neighbors(v)))
            self.programs.append(progs)
            self.contexts.append(ctxs)
        self.metrics = RunMetrics()
        self.monitor = monitor
        self.tracer = tracer
        self.registry = registry
        if monitor is not None:
            # Monitors address ``network.programs[v]`` -- a flat per-node
            # view; give them one view per multiplexed instance.
            self._views = [_InstanceView(p, c)
                           for p, c in zip(self.programs, self.contexts)]
        self._started = False
        #: Last processed physical round; ``run`` resumes from here.
        self._physical = 0
        self._published = None
        self._next_round: List[List[Optional[int]]] = []
        #: Per-sender FIFO backlog of (instance, envelope) pairs;
        #: persists across ``run`` calls so an interrupted composition
        #: resumes without losing queued traffic.
        self.queues: List[deque] = [deque() for _ in range(n)]

    def queue_backlog(self) -> int:
        """Total queued (sent, not yet transmitted) envelopes."""
        return sum(len(q) for q in self.queues)

    def run(self, max_rounds: int) -> RunMetrics:
        """Execute physical rounds until quiescence (same contract as
        :meth:`Network.run`, including resumption: programs start once,
        the physical clock, schedules, and FIFO backlogs persist, and
        ``max_rounds`` is an *absolute* physical round number, so a run
        interrupted by :class:`RoundLimitExceeded` continues where it
        stopped when called again with a larger budget)."""
        n, k = self.n, self.k
        monitor, tracer, registry = self.monitor, self.tracer, self.registry
        backlog_hist = None if registry is None else registry.histogram(
            "mux.queue_backlog")
        if not self._started:
            for i in range(k):
                for v in range(n):
                    self.programs[i][v].on_start(self.contexts[i][v])
            self._next_round = [
                [self.programs[i][v].next_active_round(self.contexts[i][v], 0)
                 for v in range(n)] for i in range(k)]
            self._started = True
        next_round = self._next_round
        # Per-instance virtual clocks advance with the physical clock
        # (delays shift schedules; delay-tolerant programs reschedule).
        queues = self.queues
        metrics = self.metrics
        physical = self._physical
        try:
            while True:
                due = any(
                    next_round[i][v] is not None and next_round[i][v] <= physical + 1
                    for i in range(k) for v in range(n))
                backlog = any(queues)
                future = [next_round[i][v] for i in range(k) for v in range(n)
                          if next_round[i][v] is not None]
                if not due and not backlog:
                    if not future:
                        break
                    physical = min(future) - 1  # fast-forward idle gaps

                if physical + 1 > max_rounds:
                    # Leave self._physical at the last *processed* round so
                    # a resumed run re-attempts this round, not the next.
                    raise RoundLimitExceeded(
                        f"multiplexer exceeded {max_rounds} physical rounds "
                        f"({self.queue_backlog()} envelopes still queued)")
                physical += 1
                self._physical = physical

                # (1) send phases of due instances
                for i in range(k):
                    for v in range(n):
                        nr = next_round[i][v]
                        if nr is not None and nr <= physical:
                            ctx = self.contexts[i][v]
                            ctx._begin_round(physical)
                            self.programs[i][v].on_send(ctx, physical)
                            for env in ctx._end_send():
                                if env.words > self.max_message_words:
                                    raise ValueError(
                                        f"instance {i}: oversized message "
                                        f"{env.payload!r}")
                                queues[v].append((i, env))
                            next_round[i][v] = self.programs[i][v].next_active_round(
                                ctx, physical)

                # (2) channel transmission under the capacity (FIFO per sender)
                inboxes: Dict[Tuple[int, int], List[Envelope]] = {}
                channel_load: Dict[Tuple[int, int], int] = {}
                delivered = 0
                for v in range(n):
                    q = queues[v]
                    blocked: deque = deque()
                    while q:
                        i, env = q.popleft()
                        ch = (env.src, env.dst)
                        if channel_load.get(ch, 0) >= self.channel_capacity:
                            blocked.append((i, env))
                            continue
                        channel_load[ch] = channel_load.get(ch, 0) + 1
                        metrics.record_message(env.src, env.dst, env.words)
                        if tracer is not None:
                            tracer.emit(physical, env.src, "mux.send",
                                        i, env.dst, env.words)
                        inboxes.setdefault((i, env.dst), []).append(env)
                        delivered += 1
                    queues[v] = blocked

                if delivered:
                    metrics.active_rounds += 1
                    metrics.rounds = max(metrics.rounds, physical)
                if tracer is not None:
                    tracer.emit(physical, -1, "mux.round", delivered,
                                self.queue_backlog())
                if backlog_hist is not None:
                    backlog_hist.observe(self.queue_backlog())

                # (3) receive phases
                touched: Dict[int, set] = {}
                for (i, v), inbox in sorted(inboxes.items()):
                    inbox.sort(key=lambda e: e.src)
                    ctx = self.contexts[i][v]
                    self.programs[i][v].on_receive(ctx, physical, inbox)
                    next_round[i][v] = self.programs[i][v].next_active_round(
                        ctx, physical)
                    if monitor is not None:
                        touched.setdefault(i, set()).add(v)

                if monitor is not None:
                    for i in sorted(touched):
                        monitor.after_round(self._views[i], physical,
                                            touched[i])
        finally:
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                self._published = publish_run_metrics(
                    registry, metrics, prefix="mux", state=self._published)
        return metrics

    def outputs(self, instance: int) -> List[Any]:
        return [self.programs[instance][v].output(self.contexts[instance][v])
                for v in range(self.n)]
