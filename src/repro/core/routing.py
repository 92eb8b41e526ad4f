"""Routing tables -- the user-facing artefact APSP exists for.

In the CONGEST model each node must know, per source, "the last edge on
a shortest path" (paper, Section I-B).  Flipped around, that is a
routing table: to forward traffic from ``x`` towards ``v``, follow the
shortest-path tree of ``x``.  This module turns any of the library's
APSP/k-SSP results into a queryable, serialisable routing structure and
validates it against the distances it came from.

Unreachable targets
-------------------
The query surface is uniform so a serving layer
(:mod:`repro.serve`) never has to special-case disconnected pairs:

* :meth:`RoutingTable.distance` returns ``inf``;
* :meth:`RoutingTable.route` and :meth:`RoutingTable.next_hop` return
  ``None``;
* :meth:`RoutingTable.forwarding_table` omits the destination (it also
  omits the source itself -- there is no first hop from ``x`` to ``x``);
* :meth:`RoutingTable.dumps` omits the pair.

Only genuine caller errors raise: an un-routed source is a ``KeyError``
and an out-of-range target a ``ValueError``, from every query method
alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graphs.digraph import WeightedDigraph

INF = float("inf")


@dataclass
class Route:
    """One source->destination route."""

    source: int
    target: int
    distance: float
    path: Tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def __str__(self) -> str:
        chain = " -> ".join(map(str, self.path))
        return f"{chain}  (weight {self.distance:g}, {self.hops} hops)"


class RoutingTable:
    """Shortest-path routes for a set of sources.

    Build from any result object that exposes ``dist[x][v]`` and
    ``parent[x][v]`` (``HKSSPResult``, ``BellmanFordKSSPResult``, ...)
    via :meth:`from_result`, or from raw mappings.

    The table keeps the rows it is given: its ``dist`` and ``parent``
    are new dicts holding the same row objects, shared, not copied.  No
    query writes a row, so a caller that only ever replaces whole rows
    in its own mappings (as :class:`~repro.recovery.DynamicRun` does)
    can hand them over as they are.
    """

    def __init__(self, graph: WeightedDigraph,
                 dist: Mapping[int, Sequence[float]],
                 parent: Mapping[int, Sequence[Optional[int]]]) -> None:
        self.graph = graph
        self.dist = dict(dist)
        self.parent = dict(parent)

    @classmethod
    def from_result(cls, graph: WeightedDigraph, result) -> "RoutingTable":
        return cls(graph, result.dist, result.parent)

    @property
    def sources(self) -> List[int]:
        return sorted(self.dist)

    # -- queries -----------------------------------------------------------

    def _row(self, x: int, v: int) -> Sequence[float]:
        if x not in self.dist:
            raise KeyError(f"{x} is not a routed source")
        if not (0 <= v < self.graph.n):
            raise ValueError(
                f"target {v} out of range for n={self.graph.n}")
        return self.dist[x]

    def distance(self, x: int, v: int) -> float:
        """The shortest-path distance x -> v (``inf`` if unreachable)."""
        return self._row(x, v)[v]

    def route(self, x: int, v: int) -> Optional[Route]:
        """The full shortest route x -> v, or ``None`` if unreachable."""
        if self._row(x, v)[v] == INF:
            return None
        path = [v]
        cur = v
        while cur != x:
            cur = self.parent[x][cur]
            if cur is None or len(path) > self.graph.n:
                raise ValueError(
                    f"broken parent chain routing {x} -> {v}")
            path.append(cur)
        path.reverse()
        return Route(source=x, target=v, distance=self.dist[x][v],
                     path=tuple(path))

    def routes(self, x: int) -> List[Optional[Route]]:
        """Every route from *x*, indexed by target: entry ``v`` equals
        :meth:`route` ``(x, v)``.

        One pass over x's parent tree: a path is its parent's path plus
        one node, so each node's path is built once and no chain is
        walked twice.  A broken chain raises the :class:`ValueError`
        :meth:`route` raises for the first target (in index order) it
        breaks.
        """
        if x not in self.dist:
            raise KeyError(f"{x} is not a routed source")
        dist, parent = self.dist[x], self.parent[x]
        n = self.graph.n
        paths: List[Optional[Tuple[int, ...]]] = [None] * n
        paths[x] = (x,)
        out: List[Optional[Route]] = [None] * n
        for v in range(n):
            d = dist[v]
            if d == INF:
                continue
            path = paths[v]
            if path is None:
                # Climb to the nearest node whose path is known, then
                # extend that path back down the climbed nodes.
                stack = []
                cur = v
                while path is None:
                    stack.append(cur)
                    cur = parent[cur]
                    if cur is None or len(stack) > n:
                        raise ValueError(
                            f"broken parent chain routing {x} -> {v}")
                    path = paths[cur]
                for node in reversed(stack):
                    path += (node,)
                    paths[node] = path
            out[v] = Route(x, v, d, path)
        return out

    def next_hop(self, x: int, v: int) -> Optional[int]:
        """The first edge to take from *x* towards *v* (``None`` if
        unreachable or if v == x)."""
        r = self.route(x, v)
        if r is None or len(r.path) < 2:
            return None
        return r.path[1]

    def forwarding_table(self, x: int) -> Dict[int, int]:
        """``{destination: first hop}`` for source *x* -- unreachable
        destinations (and ``x`` itself) are omitted.

        Computed in O(n) by propagating first hops down the parent
        tree, not by walking each route separately.
        """
        if x not in self.dist:
            raise KeyError(f"{x} is not a routed source")
        dist, parent = self.dist[x], self.parent[x]
        n = self.graph.n
        out: Dict[int, int] = {}

        def hop_of(v: int) -> Optional[int]:
            # First hop of x -> v, memoized in `out`; chain length is
            # bounded by n, so the explicit stack stays small.
            stack = []
            while v != x and v not in out:
                p = parent[v]
                if p is None or len(stack) > n:
                    raise ValueError(
                        f"broken parent chain routing {x} -> {v}")
                stack.append(v)
                v = p
            hop = None if v == x else out[v]
            for node in reversed(stack):
                out[node] = node if hop is None else hop
                hop = out[node]
            return hop

        for v in range(n):
            if v != x and dist[v] < INF:
                hop_of(v)
        return out

    # -- validation ----------------------------------------------------------

    def validate(self, *, raise_on_violation: bool = True) -> List[str]:
        """Check every route is a genuine path whose edge weights sum to
        the recorded distance, with intact parent chains and zero
        self-distances.

        Unlike a plain assertion, *all* violations are collected (one
        message per broken pair) and returned, so a table-swap sanity
        check can report the full damage in one pass.  With
        ``raise_on_violation=True`` (the default) a non-empty collection
        raises a single :class:`AssertionError` listing every violation.
        """
        violations: List[str] = []
        for x in self.dist:
            if self.dist[x][x] != 0:
                violations.append(
                    f"route {x}->{x} self-distance "
                    f"{self.dist[x][x]!r} != 0")
            for v in range(self.graph.n):
                try:
                    r = self.route(x, v)
                except ValueError as exc:
                    violations.append(str(exc))
                    continue
                if r is None:
                    continue
                total = 0
                bad_edge = False
                for a, b in zip(r.path, r.path[1:]):
                    w = self.graph.weight(a, b)
                    if w is None:
                        violations.append(
                            f"route {x}->{v} uses non-edge ({a},{b})")
                        bad_edge = True
                        break
                    total += w
                if not bad_edge and total != r.distance:
                    violations.append(
                        f"route {x}->{v} weight {total} != recorded "
                        f"{r.distance}")
        if violations and raise_on_violation:
            raise AssertionError(
                f"{len(violations)} routing violation(s):\n  "
                + "\n  ".join(violations))
        return violations

    # -- serialisation ---------------------------------------------------------

    def dumps(self) -> str:
        """Text form: one ``r <src> <dst> <dist> <path...>`` line per
        reachable pair (self-routes and unreachable pairs omitted; the
        header records the source set so :meth:`loads` can round-trip
        sources with no reachable targets)."""
        lines = [f"# repro routes v1 n={self.graph.n} "
                 f"sources={','.join(map(str, self.sources))}"]
        for x in self.sources:
            for v in range(self.graph.n):
                r = self.route(x, v)
                if r is not None and v != x:
                    lines.append(
                        f"r {x} {v} {int(r.distance)} "
                        + " ".join(map(str, r.path)))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str, graph: WeightedDigraph) -> "RoutingTable":
        """Rebuild a table from :meth:`dumps` output.

        Round-trips exactly: distances, parents, and the source set of
        the dumped table are restored (``loads(t.dumps(), g)`` equals
        ``t`` on every query).  Headers without a ``sources=`` field
        (pre-serving dumps) fall back to the sources seen on ``r``
        lines.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# repro routes v1"):
            raise ValueError("not a repro routes v1 dump")
        header = lines[0]
        fields = dict(part.split("=", 1) for part in header.split()
                      if "=" in part)
        n = int(fields.get("n", graph.n))
        if n != graph.n:
            raise ValueError(
                f"dump is for n={n}, graph has n={graph.n}")
        sources: List[int] = []
        if "sources" in fields:
            sources = [int(s) for s in fields["sources"].split(",")
                       if s != ""]
        dist: Dict[int, List[float]] = {}
        parent: Dict[int, List[Optional[int]]] = {}

        def ensure(x: int) -> None:
            if x not in dist:
                if not (0 <= x < n):
                    raise ValueError(f"source {x} out of range for n={n}")
                dist[x] = [INF] * n
                parent[x] = [None] * n
                dist[x][x] = 0

        for x in sources:
            ensure(x)
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] != "r" or len(parts) < 5:
                raise ValueError(f"malformed route line {ln!r}")
            x, v, d = int(parts[1]), int(parts[2]), int(parts[3])
            path = [int(p) for p in parts[4:]]
            if path[0] != x or path[-1] != v:
                raise ValueError(
                    f"route line {ln!r}: path endpoints do not match "
                    f"{x} -> {v}")
            ensure(x)
            if not (0 <= v < n):
                raise ValueError(f"target {v} out of range for n={n}")
            dist[x][v] = float(d)
            for a, b in zip(path, path[1:]):
                parent[x][b] = a
        return cls(graph, dist, parent)
