"""Deterministic, seeded fault plans for the CONGEST simulator.

The paper (and the seed simulator) assume a fault-free synchronous
network.  This module defines the *fault model* under which we study how
the paper's algorithms degrade: a :class:`FaultPlan` describes message
drops, duplications, bounded delays, payload corruption, per-channel
link failures, and node crash/crash-restart windows; a
:class:`FaultInjector` applies the plan to the delivery phase of
:meth:`repro.congest.network.Network.run`.

Determinism is load-bearing (tests/test_determinism.py): every
per-message coin flip is derived by hashing ``(seed, kind, round, src,
dst, channel-sequence-index)`` with SHA-256, so the same graph and the
same plan produce bit-identical executions regardless of call order,
process, or ``PYTHONHASHSEED``.  No global RNG state is consumed.

Semantics (documented here once, relied on everywhere):

* **Drops / delays / duplicates / corruption** act on messages *after*
  the CONGEST constraints are enforced and after the message is counted
  in :class:`~repro.congest.metrics.RunMetrics` -- metrics measure the
  *offered* load (what the algorithm paid for), fault statistics measure
  what the network did to it.
* **Delayed** messages arrive ``1..max_delay`` rounds late, in the
  receive phase of the later round (possibly alongside that round's
  regular traffic -- a misbehaving network is not bound by the
  per-round channel capacity on *arrival*).
* **Duplicates** are network-created copies delivered 1..max_delay
  rounds after the original; they are not counted as sent messages.
* **Link failures** silently eat everything crossing the named channel
  during the window (both directions when ``bidirectional``).
* **Crash windows** model a crashed node as a full send/receive
  omission interval: from ``crash_round`` up to (excluding)
  ``restart_round`` the node's outgoing messages are discarded and
  nothing is delivered to it.  The node's local state machine keeps
  ticking -- our programs are deterministic state machines driven only
  by messages, so this coincides with a crash-restart from stable
  storage, without needing per-program checkpoint hooks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..congest.message import Envelope, payload_words

_RATE_FIELDS = ("drop_rate", "duplicate_rate", "delay_rate", "corrupt_rate")


def _u01(seed: int, kind: str, *coords: int) -> float:
    """Deterministic uniform in [0, 1) from a seeded coordinate tuple.

    SHA-256 based so the value is independent of ``PYTHONHASHSEED``,
    process, platform, and of every other coin flip in the run.
    """
    text = "%d|%s|%s" % (seed, kind, "|".join(str(c) for c in coords))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class LinkFailure:
    """A failed directed channel ``u -> v`` during ``[start, end]``.

    ``end=None`` means the failure is permanent.  ``bidirectional``
    (default) fails the reverse channel ``v -> u`` over the same window,
    matching a severed physical link.
    """

    u: int
    v: int
    start: int = 1
    end: Optional[int] = None
    bidirectional: bool = True

    def covers(self, src: int, dst: int, r: int) -> bool:
        if r < self.start or (self.end is not None and r > self.end):
            return False
        if (src, dst) == (self.u, self.v):
            return True
        return self.bidirectional and (src, dst) == (self.v, self.u)


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is down from ``crash_round`` until ``restart_round``
    (exclusive); ``restart_round=None`` is a permanent crash.

    ``restart_from`` selects what state the node restarts with:

    * ``"state"`` (default) -- the historical omission semantics: the
      node's local state machine kept ticking while down, so it resumes
      from its current in-memory state (equivalent to a crash-restart
      from perfectly fresh stable storage);
    * ``"checkpoint"`` -- the node *loses* its volatile state: at
      ``restart_round`` it must roll back to its last durable snapshot
      and re-synchronize with its neighbours.  The injector itself
      treats both modes identically (an omission window); the rollback
      and replay are performed by
      :class:`repro.recovery.RecoverableProgram`, which reads the
      window's mode.  A permanent crash cannot restart from a
      checkpoint (there is no restart round to roll back at).
    """

    node: int
    crash_round: int
    restart_round: Optional[int] = None
    restart_from: str = "state"

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(
                f"crash node must be a node id >= 0, got {self.node}")
        if self.crash_round < 0:
            raise ValueError(
                f"crash_round must be >= 0, got {self.crash_round}")
        if self.restart_round is not None:
            if self.restart_round < 0:
                raise ValueError(
                    f"restart_round must be >= 0, got {self.restart_round}")
            if self.restart_round <= self.crash_round:
                raise ValueError(
                    f"restart_round must be > crash_round for the window "
                    f"to ever be down, got crash_round={self.crash_round} "
                    f"restart_round={self.restart_round}")
        if self.restart_from not in ("state", "checkpoint"):
            raise ValueError(
                f"restart_from must be 'state' or 'checkpoint', got "
                f"{self.restart_from!r}")
        if self.restart_from == "checkpoint" and self.restart_round is None:
            raise ValueError(
                "a permanent crash (restart_round=None) cannot restart "
                "from a checkpoint; give the window a restart_round")

    def down_at(self, r: int) -> bool:
        if r < self.crash_round:
            return False
        return self.restart_round is None or r < self.restart_round

    @staticmethod
    def parse(spec: str) -> "CrashWindow":
        """Parse the CLI syntax ``"v@r"`` (permanent) or ``"v@r:r2"``
        (restart at round r2), e.g. ``"3@10:25"``; an optional
        ``"/checkpoint"`` suffix selects checkpoint-restart semantics,
        e.g. ``"3@10:25/checkpoint"``."""
        try:
            node_s, window = spec.split("@", 1)
            restart_from = "state"
            if "/" in window:
                window, restart_from = window.split("/", 1)
            if ":" in window:
                start_s, end_s = window.split(":", 1)
                return CrashWindow(int(node_s), int(start_s), int(end_s),
                                   restart_from)
            return CrashWindow(int(node_s), int(window),
                               restart_from=restart_from)
        except (ValueError, TypeError) as exc:
            raise ValueError(
                f"bad crash spec {spec!r}: expected 'node@round' or "
                f"'node@round:restart_round' with an optional "
                f"'/checkpoint' suffix, e.g. '3@10' or '3@10:25/checkpoint'"
                f" ({exc})") from None


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of the faults of one execution.

    Rates are per-message probabilities in ``[0, 1]``; all coin flips are
    derived deterministically from ``seed`` (see module docstring).  The
    default plan is trivial: it injects nothing, and the simulator
    treats it exactly like ``fault_plan=None``.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    corrupt_rate: float = 0.0
    link_failures: Tuple[LinkFailure, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {rate}")
        if self.max_delay < 1:
            raise ValueError(
                f"max_delay must be >= 1 round, got {self.max_delay}")
        # Accept lists for convenience; store hashable tuples.
        object.__setattr__(self, "link_failures", tuple(self.link_failures))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def is_trivial(self) -> bool:
        """True when the plan can inject no fault at all (the simulator
        then uses the plain zero-overhead delivery path)."""
        return (not self.link_failures and not self.crashes
                and all(getattr(self, name) == 0.0 for name in _RATE_FIELDS))

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name.replace('_rate', '')}={rate:g}")
        if self.delay_rate:
            parts.append(f"max_delay={self.max_delay}")
        for lf in self.link_failures:
            arrow = "<->" if lf.bidirectional else "->"
            end = "inf" if lf.end is None else str(lf.end)
            parts.append(f"link {lf.u}{arrow}{lf.v}@{lf.start}:{end}")
        for cw in self.crashes:
            end = "" if cw.restart_round is None else f":{cw.restart_round}"
            mode = "" if cw.restart_from == "state" else f"/{cw.restart_from}"
            parts.append(f"crash {cw.node}@{cw.crash_round}{end}{mode}")
        return " ".join(parts)


@dataclass
class FaultStats:
    """What the injector actually did to one execution."""

    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    corruptions: int = 0
    link_drops: int = 0
    crash_send_drops: int = 0
    crash_recv_drops: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))


def corrupt_payload(payload: Any, jitter: int) -> Tuple[Any, bool]:
    """Perturb the first non-bool numeric field of *payload* (depth-first)
    by ``-jitter``; returns ``(new_payload, changed)``.

    Subtracting makes distance-like fields *smaller* -- the nastiest
    corruption for a shortest-path algorithm, because every program
    happily adopts an improvement (monotone relaxation) and the result
    is silently wrong rather than merely slow.  The
    :class:`~repro.faults.monitor.InvariantMonitor` exists to catch
    exactly this.
    """
    if isinstance(payload, bool):
        return payload, False
    if isinstance(payload, (int, float)):
        return payload - jitter, True
    if isinstance(payload, (tuple, list)):
        out = list(payload)
        for i, item in enumerate(out):
            new, changed = corrupt_payload(item, jitter)
            if changed:
                out[i] = new
                return (tuple(out) if isinstance(payload, tuple) else out), True
    return payload, False


class FaultInjector:
    """Applies a :class:`FaultPlan` to the delivery phase of one run.

    The :class:`~repro.congest.network.Network` feeds every sent
    envelope through :meth:`offer` (which drops, corrupts, duplicates,
    or queues it for delayed delivery) and collects delayed arrivals
    with :meth:`take_due`; receiver-side crash omission is checked with
    :meth:`deliverable`.  One injector serves exactly one run -- it owns
    the in-flight queue and the :class:`FaultStats`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        #: Optional :class:`~repro.obs.Tracer`; when set (the network
        #: wires it through), every injected fault is emitted as a
        #: ``fault`` event ``(fault_kind, peer)`` at the affected round.
        self.tracer: Any = None
        #: Delayed/duplicated envelopes keyed by their delivery round.
        self._in_flight: Dict[int, List[Envelope]] = {}

    def _trace(self, r: int, node: int, kind: str, peer: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(r, node, "fault", kind, peer)

    # -- topology-level fault state ------------------------------------

    def node_down(self, v: int, r: int) -> bool:
        return any(cw.node == v and cw.down_at(r) for cw in self.plan.crashes)

    def link_down(self, src: int, dst: int, r: int) -> bool:
        return any(lf.covers(src, dst, r) for lf in self.plan.link_failures)

    # -- in-flight queue ------------------------------------------------

    def earliest_in_flight(self) -> Optional[int]:
        return min(self._in_flight) if self._in_flight else None

    def in_flight_snapshot(self) -> List[Tuple[int, Envelope]]:
        """(delivery_round, envelope) pairs, for post-mortems."""
        return [(r, env) for r in sorted(self._in_flight)
                for env in self._in_flight[r]]

    def state_snapshot(self) -> Dict[str, Any]:
        """The injector's resumable execution state -- the in-flight
        queue plus the statistics accumulated so far.  The coin stream
        itself is stateless (:func:`_u01` hashes the plan seed with the
        envelope coordinates), so snapshot + :meth:`restore_state` +
        resumed delivery is indistinguishable from an uninterrupted run.
        Used by :mod:`repro.recovery.checkpoint`."""
        return {
            "stats": self.stats.as_dict(),
            "in_flight": [(r, env) for r in sorted(self._in_flight)
                          for env in self._in_flight[r]],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_snapshot` output (envelopes already
        reconstructed as :class:`Envelope` instances)."""
        self.stats = FaultStats(**state["stats"])
        self._in_flight = {}
        for r, env in state["in_flight"]:
            self._in_flight.setdefault(r, []).append(env)

    def take_due(self, r: int) -> List[Envelope]:
        """Remove and return every queued envelope due in round *r* (or
        earlier, which cannot happen when rounds are visited in order)."""
        due: List[Envelope] = []
        for rr in sorted(k for k in self._in_flight if k <= r):
            due.extend(self._in_flight.pop(rr))
        return due

    # -- the per-envelope fate ------------------------------------------

    def _maybe_corrupt(self, env: Envelope, r: int, idx: int,
                       copy: int) -> Envelope:
        plan = self.plan
        if plan.corrupt_rate <= 0.0:
            return env
        if _u01(plan.seed, "corrupt", r, env.src, env.dst, idx,
                copy) >= plan.corrupt_rate:
            return env
        jitter = 1 + int(_u01(plan.seed, "corrupt-mag", r, env.src, env.dst,
                              idx, copy) * 3)
        payload, changed = corrupt_payload(env.payload, jitter)
        if not changed:
            return env
        self.stats.corruptions += 1
        self._trace(r, env.src, "corrupt", env.dst)
        return Envelope(src=env.src, dst=env.dst, round=env.round,
                        payload=payload, words=payload_words(payload))

    def offer(self, env: Envelope, r: int, idx: int) -> List[Envelope]:
        """Decide the fate of one envelope sent in round *r*.

        *idx* is the envelope's sequence index on its channel within the
        round (a deterministic coordinate, almost always 0 under the
        CONGEST capacity of 1).  Returns the copies to deliver in round
        *r*; delayed copies and duplicates are queued internally.
        """
        plan = self.plan
        if self.node_down(env.src, r):
            self.stats.crash_send_drops += 1
            self._trace(r, env.src, "crash_send_drop", env.dst)
            return []
        if self.link_down(env.src, env.dst, r):
            self.stats.link_drops += 1
            self._trace(r, env.src, "link_drop", env.dst)
            return []
        if plan.drop_rate > 0.0 and _u01(
                plan.seed, "drop", r, env.src, env.dst, idx) < plan.drop_rate:
            self.stats.drops += 1
            self._trace(r, env.src, "drop", env.dst)
            return []

        delay = 0
        if plan.delay_rate > 0.0 and _u01(
                plan.seed, "delay", r, env.src, env.dst, idx) < plan.delay_rate:
            delay = 1 + int(_u01(plan.seed, "delay-mag", r, env.src, env.dst,
                                 idx) * plan.max_delay)
            delay = min(delay, plan.max_delay)
            self.stats.delays += 1
            self._trace(r, env.src, "delay", env.dst)

        now: List[Envelope] = []
        first = self._maybe_corrupt(env, r, idx, 0)
        if delay == 0:
            now.append(first)
        else:
            self._in_flight.setdefault(r + delay, []).append(first)

        if plan.duplicate_rate > 0.0 and _u01(
                plan.seed, "dup", r, env.src, env.dst,
                idx) < plan.duplicate_rate:
            dup_delay = 1 + int(_u01(plan.seed, "dup-delay", r, env.src,
                                     env.dst, idx) * plan.max_delay)
            dup_delay = min(dup_delay, plan.max_delay)
            copy = self._maybe_corrupt(env, r, idx, 1)
            self._in_flight.setdefault(r + dup_delay, []).append(copy)
            self.stats.duplicates += 1
            self._trace(r, env.src, "duplicate", env.dst)
        return now

    def deliverable(self, env: Envelope, r: int) -> bool:
        """Receiver-side omission check at the actual delivery round."""
        if self.node_down(env.dst, r):
            self.stats.crash_recv_drops += 1
            self._trace(r, env.dst, "crash_recv_drop", env.src)
            return False
        return True
