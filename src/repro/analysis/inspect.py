"""Execution inspection: replay what the pipelined algorithm did.

Debugging a distributed schedule from distance matrices alone is
miserable; these helpers re-run Algorithm 1 with tracing enabled and
reconstruct human-readable timelines:

* :func:`trace_run` -- one traced execution, returning the raw trace and
  the result;
* :func:`explain_pair` -- the story of one (source, node) pair: every
  improvement of the node's estimate, with the round, the value, and the
  parent it arrived from;
* :func:`node_timeline` -- everything one node did (sends and inserts),
  round by round;
* :func:`schedule_occupancy` -- per-round counts of sending nodes, the
  utilisation profile of the pipelined schedule.

All of them read the program trace's ``send`` / ``insert`` events; the
programs themselves keep no per-entry history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest import TraceRecorder
from ..graphs.digraph import WeightedDigraph
from ..core.pipelined import HKSSPResult, run_hk_ssp


@dataclass
class PairStory:
    """Improvement history of one (source, node) pair."""

    source: int
    node: int
    #: (round, d, l, parent) for every time the pair's estimate improved.
    improvements: List[Tuple[int, int, int, Optional[int]]]
    final: Optional[Tuple[int, int, Optional[int]]]

    def render(self) -> str:
        lines = [f"pair {self.source} -> {self.node}:"]
        if not self.improvements:
            lines.append("  never learned anything")
        for r, d, l, p in self.improvements:
            lines.append(f"  round {r:4d}: d={d} l={l} via {p}")
        if self.final:
            d, l, p = self.final
            lines.append(f"  final: d={d} over {l} hops, parent {p}")
        return "\n".join(lines)


def trace_run(graph: WeightedDigraph, sources: Sequence[int], h: int,
              **kwargs) -> Tuple[HKSSPResult, TraceRecorder]:
    """Run Algorithm 1 with tracing; returns (result, trace)."""
    trace = TraceRecorder()
    res = run_hk_ssp(graph, sources, h, trace=trace, **kwargs)
    return res, trace


def explain_pair(graph: WeightedDigraph, source: int, node: int, h: int,
                 **kwargs) -> PairStory:
    """Reconstruct when and how *node* learned its distance from
    *source* under an (h, k)-SSP run with the given source alone."""
    res, trace = trace_run(graph, [source], h, **kwargs)
    improvements: List[Tuple[int, int, int, Optional[int]]] = []
    best: Optional[Tuple[int, int]] = None
    for e in trace.of_kind("insert"):
        if e.node != node:
            continue
        d, l, x, _kappa, _pos = e.data
        if x != source:
            continue
        if best is None or (d, l) < best:
            best = (d, l)
            improvements.append((e.round, d, l, None))
    final = None
    if res.dist[source][node] != float("inf"):
        final = (int(res.dist[source][node]), int(res.hops[source][node]),
                 res.parent[source][node])
        # attach parents to improvement records where they match the final
        improvements = [
            (r, d, l, final[2] if (d, l) == (final[0], final[1]) else p)
            for r, d, l, p in improvements]
    return PairStory(source=source, node=node,
                     improvements=improvements, final=final)


def node_timeline(trace: TraceRecorder, node: int) -> List[str]:
    """Readable per-round log of one node's sends and inserts."""
    lines = []
    for e in trace:
        if e.node != node:
            continue
        if e.kind == "send":
            d, l, x, nu = e.data
            lines.append(f"round {e.round:4d}: SEND   src={x} d={d} l={l} nu={nu}")
        elif e.kind == "insert":
            d, l, x, kappa, pos = e.data
            lines.append(f"round {e.round:4d}: INSERT src={x} d={d} l={l} "
                         f"kappa={kappa:.3f} pos={pos}")
    return lines


def schedule_occupancy(trace: TraceRecorder) -> Dict[int, int]:
    """``{round: number of nodes that sent}`` -- the schedule's
    utilisation profile (at most one send per node per round)."""
    occ: Dict[int, int] = {}
    for e in trace.of_kind("send"):
        occ[e.round] = occ.get(e.round, 0) + 1
    return occ


def render_occupancy(trace: TraceRecorder, n: int, *, width: int = 60) -> str:
    """Sparkline of sending-node counts per round."""
    from .ascii_charts import sparkline
    occ = schedule_occupancy(trace)
    if not occ:
        return "(no sends)"
    last = max(occ)
    series = [occ.get(r, 0) for r in range(1, last + 1)]
    return (f"sends per round, rounds 1..{last} (peak {max(series)}/{n} nodes):\n"
            + sparkline(series, width=width))
