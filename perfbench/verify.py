"""Independent answer checks: every result is compared with Dijkstra.

The truth tables come from a plain ``heapq`` Dijkstra over the arc list
the benchmark itself generated (or updated), not from the program's own
reference code, so a bug shared by the program and its oracle cannot
hide here.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

INF = float("inf")

Arcs = Dict[Tuple[int, int], int]


def dijkstra_table(n: int, arcs: Arcs) -> List[List[float]]:
    """``table[s][v]``: the shortest-path distance s -> v over *arcs*."""
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in arcs.items():
        adj[u].append((v, w))
    table = []
    for s in range(n):
        dist = [INF] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        table.append([float(x) for x in dist])
    return table


def route_ok(route: Any, u: int, v: int, want: float, arcs: Arcs) -> bool:
    """A path answer is right when it runs u -> v over existing arcs and
    both its recorded and its walked weight equal the true distance."""
    if want == INF:
        return route is None
    if route is None or route.source != u or route.target != v:
        return False
    path = route.path
    if not path or path[0] != u or path[-1] != v:
        return False
    total = 0
    for a, b in zip(path, path[1:]):
        w = arcs.get((a, b))
        if w is None:
            return False
        total += w
    return total == want and route.distance == want


class Checker:
    """Counts wrong answers against one epoch's truth table."""

    def __init__(self, table: Sequence[Sequence[float]], arcs: Arcs) -> None:
        self.table = table
        self.arcs = arcs
        # (u, v) -> a path already walked and found right for this epoch;
        # a later answer with an equal path needs no second walk.  A
        # serve_zipf run checks ~7M answers; per 100k answers the walk
        # took 0.146 s without this memo and 0.056 s with it (2-vCPU x86).
        self._paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def wrong_answers(self, queries: Sequence[Any],
                      answers: Sequence[Any]) -> int:
        """Wrong served answers (distance or path) for one batch."""
        if len(answers) != len(queries):
            return len(queries)
        table, arcs, known = self.table, self.arcs, self._paths
        wrong = 0
        for q, a in zip(queries, answers):
            u, v = q.u, q.v
            want = table[u][v]
            if q.kind == "distance":
                if a != want:
                    wrong += 1
                continue
            if a is None:
                if want != INF:
                    wrong += 1
                continue
            path = known.get((u, v))
            try:
                if (path is not None and a.path == path
                        and a.distance == want
                        and a.source == u and a.target == v):
                    continue
                if route_ok(a, u, v, want, arcs):
                    known[(u, v)] = a.path
                    continue
            except AttributeError:  # not a route at all
                pass
            wrong += 1
        return wrong


def wrong_rows(dist: Mapping[int, Sequence[float]],
               table: Sequence[Sequence[float]]) -> int:
    """APSP rows that differ from the truth table (missing rows count)."""
    bad = 0
    for s, want in enumerate(table):
        got: Optional[Sequence[float]] = dist.get(s)
        if got is None or list(got) != list(want):
            bad += 1
    return bad
