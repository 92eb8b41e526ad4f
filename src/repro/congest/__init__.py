"""CONGEST-model simulation substrate (paper Section I-B).

Public surface:

* :class:`Network` -- the synchronous round simulator.
* :class:`Program` / :class:`NodeContext` -- per-node algorithm interface.
* :class:`RunMetrics` / :func:`merge_sequential` -- round & congestion accounting.
* :func:`build_bfs_tree`, :func:`pipelined_broadcast`, :func:`convergecast`,
  :func:`convergecast_sum`, :func:`convergecast_max`, :func:`broadcast_single`
  -- folklore primitives used by Algorithm 3.
* :class:`TraceRecorder` / :class:`RingTraceRecorder` -- optional event
  tracing for invariant checks and bounded post-mortem flight recording.

Fault injection, resilience wrappers, and invariant monitoring live in
the sibling package :mod:`repro.faults` and plug in through the
``fault_plan`` / ``monitor`` / ``record_window`` keywords of
:class:`Network`.
"""

from .message import (
    CongestionError,
    Envelope,
    MessageSizeError,
    payload_words,
)
from .metrics import RunMetrics, merge_sequential
from .network import Network, RoundLimitExceeded
from .node import NodeContext, Program
from .primitives import (
    BFSTree,
    broadcast_single,
    build_bfs_tree,
    convergecast,
    convergecast_max,
    convergecast_sum,
    pipelined_broadcast,
)
from .scheduler import MultiplexedNetwork, compose_time_sliced
from .events import RingTraceRecorder, TraceEvent, TraceRecorder

__all__ = [
    "BFSTree",
    "CongestionError",
    "Envelope",
    "MessageSizeError",
    "MultiplexedNetwork",
    "Network",
    "NodeContext",
    "Program",
    "RingTraceRecorder",
    "RoundLimitExceeded",
    "RunMetrics",
    "TraceEvent",
    "TraceRecorder",
    "broadcast_single",
    "build_bfs_tree",
    "compose_time_sliced",
    "convergecast",
    "convergecast_max",
    "convergecast_sum",
    "merge_sequential",
    "payload_words",
    "pipelined_broadcast",
]
