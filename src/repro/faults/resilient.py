"""Ack-based retransmission wrapper making any :class:`Program` drop-tolerant.

The paper's algorithms are proved correct over reliable synchronous
channels.  :class:`ResilientProgram` restores that abstraction on top of
a faulty network: every inner message is framed as a sequenced,
checksummed data frame, the receiver acknowledges each frame (piggyback
on its own traffic when possible), and unacknowledged frames are
retransmitted after a timeout with exponential backoff.  Duplicates are
suppressed by sequence number, corrupted frames fail the checksum and
are treated as drops (the retransmission recovers them), and transient
crash windows are ridden out by the backoff schedule.

The wrapper stays inside the CONGEST discipline: it emits at most one
message per directed channel per round (data frames carry up to
``ack_batch`` piggybacked acks; a pure-ack frame is sent only when no
data is due).  The price is a constant per-message word overhead
(tag + seq + checksum + acks) and extra rounds; both are counted
*separately* from the algorithm's own cost --
:func:`run_resilient` folds the totals into
``RunMetrics.retransmissions`` / ``RunMetrics.ack_messages`` so
benchmarks can report protocol overhead vs. fault rate
(benchmarks/bench_fault_tolerance.py).

What the wrapper can and cannot promise (docs/ALGORITHM.md, "Fault
model & resilience"): it guarantees *eventual exactly-once delivery* of
every inner message while both endpoints are eventually up, so
self-stabilizing relaxation algorithms (Bellman-Ford, delay-tolerant
short-range) converge to correct distances under drops.  It does *not*
preserve arrival rounds -- algorithms whose correctness leans on the
fault-free round schedule (Algorithm 1's pipelining, hop-truncated
Bellman-Ford) get reliable delivery but lose their timing-based
guarantees.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..congest.message import Envelope
from ..congest.node import NodeContext, Program

_DATA = "D"
_ACK = "A"


class UnreachablePeer(RuntimeError):
    """A peer ignored every retransmission of a frame past the give-up
    threshold -- it is almost certainly permanently crashed.

    Raised by :class:`ResilientProgram` (when ``unreachable_after`` is
    set) instead of retransmitting until the round limit, so a run
    against a dead peer fails in a handful of backoff intervals with a
    precise diagnosis rather than a generic ``RoundLimitExceeded``
    hundreds of rounds later.  :func:`run_resilient` attaches a
    :class:`~repro.faults.watchdog.PostMortem` as ``post_mortem``.
    """

    def __init__(self, node: int, peer: int, seq: int, tries: int,
                 round_: int) -> None:
        self.node = node
        self.peer = peer
        self.seq = seq
        self.tries = tries
        self.round = round_
        self.post_mortem: Any = None
        super().__init__(
            f"node {node}: frame seq={seq} to peer {peer} unacknowledged "
            f"after {tries} transmissions (round {round_}); the peer "
            f"looks permanently crashed")


def _checksum(seq: int, acks: Tuple[int, ...], payload: Any) -> int:
    """16-bit frame checksum over everything except the checksum word.

    ``repr`` of the supported payload types (ints, floats, bools, short
    strings, nested tuples/lists) is deterministic across processes, so
    the checksum is too.
    """
    text = "%d|%r|%r" % (seq, acks, payload)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFF


class _CaptureContext:
    """A stand-in :class:`NodeContext` that records the inner program's
    sends instead of emitting them, so the wrapper can frame them.

    Topology queries delegate to the real context; locality is enforced
    with the same error message as the real ``send``.
    """

    def __init__(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        self.captured: List[Tuple[int, Any]] = []
        self.node = ctx.node
        self.n = ctx.n
        self.out_edges = ctx.out_edges
        self.in_edges = ctx.in_edges
        self.comm_neighbors = ctx.comm_neighbors

    def weight_in(self, src: int) -> Optional[int]:
        return self._ctx.weight_in(src)

    def send(self, dst: int, payload: Any) -> None:
        if dst not in self._ctx.comm_neighbors:
            raise ValueError(
                f"node {self.node} has no channel to {dst}: CONGEST "
                "messages may only cross incident edges")
        self.captured.append((dst, payload))

    def send_many(self, dsts: Iterable[int], payload: Any) -> None:
        for dst in dsts:
            self.send(dst, payload)

    def broadcast(self, payload: Any) -> None:
        self.send_many(self.comm_neighbors, payload)

    def broadcast_out(self, payload: Any) -> None:
        self.send_many((v for v, _w in self.out_edges), payload)


class _Pending:
    """One unacknowledged data frame."""

    __slots__ = ("payload", "retry_at", "interval", "tries")

    def __init__(self, payload: Any, retry_at: int, interval: float) -> None:
        self.payload = payload
        self.retry_at = retry_at
        self.interval = interval
        self.tries = 1


class ResilientProgram(Program):
    """Wrap *inner* with ack/retransmit framing (see module docstring).

    Parameters
    ----------
    timeout:
        Rounds to wait for an ack before the first retransmission.  The
        minimum useful value is 3 (send round + ack round + slack); the
        default leaves room for one network delay.
    backoff, max_backoff:
        Retransmission interval multiplier and cap, in rounds.
    ack_batch:
        Max acks piggybacked per frame (word-budget trade-off).
    max_retries:
        Give up on a frame after this many transmissions (``None`` =
        retry forever).  Abandoning frames breaks the delivery guarantee
        and is only meant for runs with permanently crashed peers.
    unreachable_after:
        Raise :class:`UnreachablePeer` when a frame is about to be
        transmitted for the ``unreachable_after + 1``-th time without an
        ack (``None`` = never).  With the default timeout/backoff
        schedule, 8 unacknowledged transmissions span a couple of
        hundred rounds -- far beyond any transient crash window -- so
        this is a permanent-crash detector, not a congestion tripwire.
    """

    def __init__(self, inner: Program, *, timeout: int = 4,
                 backoff: float = 2.0, max_backoff: int = 64,
                 ack_batch: int = 4,
                 max_retries: Optional[int] = None,
                 unreachable_after: Optional[int] = None) -> None:
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1 round, got {timeout}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {backoff}")
        if ack_batch < 1:
            raise ValueError(f"ack_batch must be >= 1, got {ack_batch}")
        self.inner = inner
        self.timeout = timeout
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.ack_batch = ack_batch
        self.max_retries = max_retries
        self.unreachable_after = unreachable_after

        self._next_seq: Dict[int, int] = {}
        self._queue: Dict[int, Deque[Any]] = {}          # dst -> fresh payloads
        self._unacked: Dict[Tuple[int, int], _Pending] = {}  # (dst, seq)
        self._pending_acks: Dict[int, List[int]] = {}    # dst -> seqs to ack
        self._seen: Dict[int, Set[int]] = {}             # src -> delivered seqs
        self._inner_next: Optional[int] = None

        #: Overhead accounting, aggregated by :func:`run_resilient`.
        self.retransmissions = 0
        self.ack_only_messages = 0
        self.data_messages = 0
        self.duplicates_suppressed = 0
        self.corrupt_rejected = 0
        self.abandoned = 0

    # -- per-message word overhead ------------------------------------

    @classmethod
    def frame_overhead_words(cls, ack_batch: int = 4) -> int:
        """Words a data frame adds on top of the inner payload:
        tag + seq + checksum + up to *ack_batch* piggybacked acks."""
        return 3 + ack_batch

    # -- lifecycle -----------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        self.inner.on_start(ctx)
        self._inner_next = self.inner.next_active_round(ctx, 0)

    # -- send phase ----------------------------------------------------

    def _take_acks(self, dst: int) -> Tuple[int, ...]:
        acks = self._pending_acks.get(dst)
        if not acks:
            return ()
        take = tuple(acks[:self.ack_batch])
        del acks[:len(take)]
        if not acks:
            del self._pending_acks[dst]
        return take

    def _due_retransmission(self, dst: int, r: int) -> Optional[int]:
        """Earliest-due unacked seq for *dst*, abandoning hopeless ones."""
        due: List[Tuple[int, int]] = []
        for (d, seq), pend in list(self._unacked.items()):
            if d != dst or pend.retry_at > r:
                continue
            if self.max_retries is not None and pend.tries >= self.max_retries:
                del self._unacked[(d, seq)]
                self.abandoned += 1
                continue
            due.append((pend.retry_at, seq))
        return min(due)[1] if due else None

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self._inner_next is not None and self._inner_next <= r:
            cap = _CaptureContext(ctx)
            self.inner.on_send(cap, r)
            self._inner_next = self.inner.next_active_round(ctx, r)
            for dst, payload in cap.captured:
                self._queue.setdefault(dst, deque()).append(payload)

        # One frame per neighbour per round, retransmissions first.
        dsts = set(self._queue) | set(self._pending_acks)
        dsts.update(d for (d, _s), p in self._unacked.items() if p.retry_at <= r)
        for dst in sorted(dsts):
            acks = self._take_acks(dst)
            seq = self._due_retransmission(dst, r)
            if seq is not None:
                pend = self._unacked[(dst, seq)]
                if (self.unreachable_after is not None
                        and pend.tries >= self.unreachable_after):
                    raise UnreachablePeer(ctx.node, dst, seq, pend.tries, r)
                pend.tries += 1
                pend.interval = min(pend.interval * self.backoff,
                                    float(self.max_backoff))
                pend.retry_at = r + max(1, int(pend.interval))
                payload = pend.payload
                self.retransmissions += 1
            elif self._queue.get(dst):
                payload = self._queue[dst].popleft()
                if not self._queue[dst]:
                    del self._queue[dst]
                seq = self._next_seq.get(dst, 0)
                self._next_seq[dst] = seq + 1
                self._unacked[(dst, seq)] = _Pending(
                    payload, r + self.timeout, float(self.timeout))
            elif acks:
                ctx.send(dst, (_ACK, _checksum(-1, acks, None), acks))
                self.ack_only_messages += 1
                continue
            else:
                continue
            ctx.send(dst, (_DATA, seq, _checksum(seq, acks, payload),
                           acks, payload))
            self.data_messages += 1

    # -- receive phase -------------------------------------------------

    def _apply_acks(self, src: int, acks: Tuple[int, ...]) -> None:
        for seq in acks:
            self._unacked.pop((src, seq), None)

    def on_receive(self, ctx: NodeContext, r: int,
                   inbox: List[Envelope]) -> None:
        deliver: List[Envelope] = []
        for env in inbox:
            frame = env.payload
            if not isinstance(frame, tuple) or not frame:
                self.corrupt_rejected += 1
                continue
            if frame[0] == _ACK and len(frame) == 3:
                _tag, cksum, acks = frame
                if cksum != _checksum(-1, tuple(acks), None):
                    self.corrupt_rejected += 1
                    continue
                self._apply_acks(env.src, tuple(acks))
            elif frame[0] == _DATA and len(frame) == 5:
                _tag, seq, cksum, acks, payload = frame
                if cksum != _checksum(seq, tuple(acks), payload):
                    self.corrupt_rejected += 1
                    continue
                self._apply_acks(env.src, tuple(acks))
                # Always ack, even duplicates (the earlier ack may have
                # been lost -- that is exactly why the copy resurfaced).
                self._pending_acks.setdefault(env.src, []).append(seq)
                seen = self._seen.setdefault(env.src, set())
                if seq in seen:
                    self.duplicates_suppressed += 1
                    continue
                seen.add(seq)
                deliver.append(Envelope.make(env.src, ctx.node, r, payload))
            else:
                self.corrupt_rejected += 1
        if deliver:
            deliver.sort(key=lambda e: e.src)
            self.inner.on_receive(ctx, r, deliver)
            self._inner_next = self.inner.next_active_round(ctx, r)

    # -- scheduling ----------------------------------------------------

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        candidates: List[int] = []
        if self._inner_next is not None:
            candidates.append(self._inner_next)
        if self._queue or self._pending_acks:
            candidates.append(r + 1)
        if self._unacked:
            candidates.append(min(p.retry_at for p in self._unacked.values()))
        if not candidates:
            return None
        return max(r + 1, min(candidates))

    def output(self, ctx: NodeContext) -> Any:
        return self.inner.output(ctx)


def _has_permanent_crash(fault_plan: Any) -> bool:
    """True when the plan declares a crash window that never restarts
    (accepts a :class:`~repro.faults.plan.FaultPlan` or an injector)."""
    plan = getattr(fault_plan, "plan", fault_plan)
    crashes = getattr(plan, "crashes", ()) or ()
    return any(cw.restart_round is None for cw in crashes)


def run_resilient(graph: Any, program_factory: Callable[[int], Program],
                  max_rounds: int, *,
                  timeout: int = 4, backoff: float = 2.0,
                  max_backoff: int = 64, ack_batch: int = 4,
                  max_retries: Optional[int] = None,
                  unreachable_after: Any = "auto",
                  max_message_words: int = 8,
                  backend: Optional[str] = None,
                  **network_kwargs: Any):
    """Run *program_factory*'s programs wrapped in
    :class:`ResilientProgram` and fold the protocol overhead into the
    returned metrics.

    The network's per-message word budget is widened by exactly the
    frame overhead, so the *inner* algorithm still lives under its
    original CONGEST budget.  Accepts the same keyword arguments as
    :class:`~repro.congest.network.Network` (notably ``fault_plan`` and
    ``monitor``), plus ``backend`` to select the simulator backend
    (``None`` = ambient default, see :mod:`repro.perf.backends`).
    Returns ``(outputs, metrics, network)``, with
    ``metrics.retransmissions`` / ``metrics.ack_messages`` filled in.

    ``unreachable_after="auto"`` (the default) enables the
    :class:`UnreachablePeer` fail-fast detector (threshold 8) exactly
    when the fault plan declares a *permanent* crash window -- transient
    windows keep the retry-forever behaviour the delivery guarantee is
    built on.  Pass an int to force a threshold or ``None`` to disable.
    An :class:`UnreachablePeer` raised by any wrapper propagates with a
    post-mortem attached.
    """
    if unreachable_after == "auto":
        unreachable_after = (
            8 if _has_permanent_crash(network_kwargs.get("fault_plan"))
            else None)
    wrappers: List[ResilientProgram] = []

    def factory(v: int) -> ResilientProgram:
        w = ResilientProgram(program_factory(v), timeout=timeout,
                             backoff=backoff, max_backoff=max_backoff,
                             ack_batch=ack_batch, max_retries=max_retries,
                             unreachable_after=unreachable_after)
        wrappers.append(w)
        return w

    from ..perf.backends import make_network
    budget = max_message_words + ResilientProgram.frame_overhead_words(ack_batch)
    net = make_network(graph, factory, backend=backend,
                       max_message_words=budget, **network_kwargs)
    try:
        metrics = net.run(max_rounds=max_rounds)
    except UnreachablePeer as exc:
        from .watchdog import build_post_mortem
        exc.post_mortem = build_post_mortem(net, str(exc), exc.round)
        raise
    finally:
        net.metrics.retransmissions += sum(w.retransmissions for w in wrappers)
        net.metrics.ack_messages += sum(w.ack_only_messages for w in wrappers)
    return net.outputs(), metrics, net
