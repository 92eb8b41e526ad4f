"""Structured post-mortems for non-quiescing or invariant-violating runs.

Before this module, a run that failed to quiesce died with a bare
``RoundLimitExceeded`` and the only debugging tool was print statements.
Now the :class:`~repro.congest.network.Network` builds a
:class:`PostMortem` at the moment of failure -- the last ``k`` rounds of
per-node sends/receives (when event recording is enabled via
``Network(record_window=k)``), every in-flight delayed envelope, the
per-channel load, the pending send schedule, and the fault statistics --
attaches it to the exception (``exc.post_mortem``) and appends its
rendering to the exception text, so the failure arrives located instead
of bare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..congest.events import TraceEvent

#: How many of the busiest channels the post-mortem lists.
TOP_CHANNELS = 8


@dataclass
class PostMortem:
    """Everything known about the network at the moment of failure."""

    reason: str
    round: int
    #: Nodes with a scheduled future send: node -> round.
    pending_sends: Dict[int, int] = field(default_factory=dict)
    #: Delayed envelopes still queued by the fault injector:
    #: (delivery_round, src, dst, payload).
    in_flight: List[Tuple[int, int, int, Any]] = field(default_factory=list)
    #: Busiest directed channels over the whole run: ((u, v), messages).
    top_channels: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)
    #: Fault statistics (empty dict when no injector was attached).
    fault_stats: Dict[str, int] = field(default_factory=dict)
    #: Last-window send/receive events (empty unless ``record_window``).
    recent_events: List[TraceEvent] = field(default_factory=list)
    record_window: int = 0

    def render(self, max_events: int = 40) -> str:
        """Human-readable dump, appended to the raised exception."""
        lines = [f"=== post-mortem: {self.reason} (round {self.round}) ==="]
        if self.pending_sends:
            sched = ", ".join(f"{v}@r{rr}" for v, rr
                              in sorted(self.pending_sends.items())[:16])
            more = len(self.pending_sends) - 16
            lines.append(f"pending sends : {sched}"
                         + (f" (+{more} more)" if more > 0 else ""))
        else:
            lines.append("pending sends : none")
        if self.in_flight:
            lines.append(f"in flight     : {len(self.in_flight)} delayed "
                         "envelope(s)")
            for rr, src, dst, payload in self.in_flight[:8]:
                lines.append(f"  due r{rr}: {src} -> {dst} {payload!r}")
        if self.top_channels:
            busy = ", ".join(f"{u}->{v}:{c}"
                             for (u, v), c in self.top_channels)
            lines.append(f"busiest chans : {busy}")
        if self.fault_stats:
            active = {k: n for k, n in self.fault_stats.items() if n}
            lines.append(f"fault events  : {active or 'none'}")
        if self.recent_events:
            lines.append(f"last {self.record_window} round(s) of events "
                         f"({len(self.recent_events)} recorded):")
            for e in list(self.recent_events)[-max_events:]:
                lines.append(f"  r{e.round} node {e.node} {e.kind} {e.data!r}")
        elif not self.record_window:
            lines.append("(re-run with Network(record_window=k) for the "
                         "last-k-rounds event log)")
        return "\n".join(lines)


def build_post_mortem(network: Any, reason: str, r: int,
                      next_round: Optional[List[Optional[int]]] = None
                      ) -> PostMortem:
    """Assemble a :class:`PostMortem` from a network's current state.

    Called by :meth:`Network.run` at the point of failure; everything
    here is read-only and cheap (nothing is computed per round during a
    healthy run).
    """
    pending: Dict[int, int] = {}
    if next_round is not None:
        pending = {v: rr for v, rr in enumerate(next_round) if rr is not None}

    injector = getattr(network, "fault_injector", None)
    in_flight: List[Tuple[int, int, int, Any]] = []
    fault_stats: Dict[str, int] = {}
    if injector is not None:
        in_flight = [(rr, env.src, env.dst, env.payload)
                     for rr, env in injector.in_flight_snapshot()]
        fault_stats = injector.stats.as_dict()

    channels = network.metrics.channel_messages
    top = sorted(channels.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_CHANNELS]

    recorder = getattr(network, "trace", None)
    events = list(recorder) if recorder is not None else []

    return PostMortem(
        reason=reason, round=r, pending_sends=pending,
        in_flight=in_flight, top_channels=top, fault_stats=fault_stats,
        recent_events=events,
        record_window=getattr(network, "record_window", 0),
    )
