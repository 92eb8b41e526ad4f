"""Sequential reference oracles.

Every distributed algorithm in this library is differential-tested against
these single-machine implementations.  They are deliberately simple and
independent of the distributed code paths:

* :func:`dijkstra` -- textbook Dijkstra with a binary heap; correct for
  non-negative (including zero) integer weights.
* :func:`dijkstra_min_hops` -- Dijkstra on the lexicographic key
  ``(distance, hops)``: among all shortest paths it finds one with the
  fewest hops.  This is the quantity Algorithm 1's tie-breaking computes.
* :func:`apsp` / :func:`apsp_min_hops` -- all sources.
* :func:`shortest_path_diameter` -- the paper's ``Delta`` (maximum finite
  shortest-path distance), and :func:`max_min_hops` the hop-diameter of
  shortest paths.
* :func:`zero_reachability` -- pairs connected by zero-weight paths
  (Section IV's first step).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .digraph import WeightedDigraph

INF = float("inf")


def dijkstra(graph: WeightedDigraph, source: int) -> Tuple[List[float], List[Optional[int]]]:
    """Shortest-path distances and parent pointers from *source*.

    Returns ``(dist, parent)`` where ``dist[v]`` is ``inf`` for unreachable
    nodes and ``parent[source] is None``.
    """
    n = graph.n
    dist: List[float] = [INF] * n
    parent: List[Optional[int]] = [None] * n
    dist[source] = 0
    heap: List[Tuple[float, int]] = [(0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph.out_edges(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def dijkstra_min_hops(graph: WeightedDigraph, source: int
                      ) -> Tuple[List[float], List[float], List[Optional[int]]]:
    """Dijkstra on the key ``(distance, hops)``.

    Returns ``(dist, hops, parent)``: ``hops[v]`` is the minimum hop count
    among *shortest* paths from source to ``v``.  With zero-weight edges
    this is well-defined and finite (a minimal-hop shortest path never
    repeats a vertex, because cycles have non-negative weight and >= 1 hop).
    """
    n = graph.n
    dist: List[float] = [INF] * n
    hops: List[float] = [INF] * n
    parent: List[Optional[int]] = [None] * n
    dist[source] = 0
    hops[source] = 0
    heap: List[Tuple[float, float, int]] = [(0, 0, source)]
    done = [False] * n
    while heap:
        d, l, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph.out_edges(u):
            nd, nl = d + w, l + 1
            if nd < dist[v] or (nd == dist[v] and nl < hops[v]):
                dist[v], hops[v] = nd, nl
                parent[v] = u
                heapq.heappush(heap, (nd, nl, v))
    return dist, hops, parent


def weak_h_hop_sssp(graph: WeightedDigraph, source: int, h: int
                    ) -> Tuple[List[float], List[float]]:
    """The paper's (h, k)-SSP output semantics, per source.

    Node v learns ``(delta(x, v), minhop(x, v))`` -- the true shortest
    distance and the minimum hop count among *shortest* paths -- iff
    ``minhop(x, v) <= h``; otherwise it learns nothing for x.

    This is deliberately weaker than the h-hop dynamic-programming
    distance (min weight over <= h-hop paths): the paper's Figure 1
    caption makes the same restriction for CSSSP trees ("if every
    shortest path from source s to a vertex x has more than h hops, then
    the h-hop tree for source s ... is not required to have x in it"),
    and the single-estimate short-range Algorithm 2 computes exactly this
    quantity.  See DESIGN.md section 6.
    """
    dist, hops, _parent = dijkstra_min_hops(graph, source)
    out_d: List[float] = [INF] * graph.n
    out_l: List[float] = [INF] * graph.n
    for v in range(graph.n):
        if hops[v] <= h:
            out_d[v] = dist[v]
            out_l[v] = hops[v]
    return out_d, out_l


def weak_delta_bound(graph: WeightedDigraph, sources: Sequence[int], h: int) -> int:
    """The paper's ``Delta`` for an (h, k)-SSP instance under the weak
    output semantics: the maximum ``delta(x, v)`` over pairs with
    ``minhop(x, v) <= h``."""
    best = 0
    for s in sources:
        dist, hops, _ = dijkstra_min_hops(graph, s)
        for v in range(graph.n):
            if hops[v] <= h and dist[v] != INF and dist[v] > best:
                best = int(dist[v])
    return best


def apsp(graph: WeightedDigraph) -> List[List[float]]:
    """All-pairs shortest distances; ``apsp(g)[x][v]`` = dist x -> v."""
    return [dijkstra(graph, s)[0] for s in range(graph.n)]


def apsp_min_hops(graph: WeightedDigraph) -> Tuple[List[List[float]], List[List[float]]]:
    """All-pairs ``(dist, min-hops-among-shortest-paths)`` matrices."""
    dists, hops = [], []
    for s in range(graph.n):
        d, l, _ = dijkstra_min_hops(graph, s)
        dists.append(d)
        hops.append(l)
    return dists, hops


def k_source_distances(graph: WeightedDigraph, sources: Sequence[int]) -> Dict[int, List[float]]:
    """Distances from each source in *sources* (the k-SSP oracle)."""
    return {s: dijkstra(graph, s)[0] for s in sources}


def shortest_path_diameter(graph: WeightedDigraph) -> int:
    """The paper's ``Delta``: the maximum finite shortest-path distance
    over all ordered pairs (0 for a graph with no finite positive
    distances)."""
    best = 0
    for s in range(graph.n):
        d, _ = dijkstra(graph, s)
        for x in d:
            if x != INF and x > best:
                best = int(x)
    return best


def max_min_hops(graph: WeightedDigraph) -> int:
    """Maximum, over reachable ordered pairs, of the minimum hop count of
    a shortest path -- the 'shortest-path hop diameter'.  Algorithm 1 run
    with hop bound >= this value computes exact (unbounded) APSP."""
    best = 0
    _, hops = apsp_min_hops(graph)
    for row in hops:
        for x in row:
            if x != INF and x > best:
                best = int(x)
    return best


def eccentricity_bound(graph: WeightedDigraph) -> int:
    """Hop diameter of the communication graph (BFS on U_G), used to size
    broadcast phases."""
    n = graph.n
    best = 0
    for s in range(n):
        depth = [-1] * n
        depth[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.comm_neighbors(u):
                    if depth[v] < 0:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = max(best, max((d for d in depth if d >= 0), default=0))
    return best


def zero_reachability(graph: WeightedDigraph) -> List[Set[int]]:
    """``zero_reachability(g)[u]`` = set of v with a zero-weight directed
    path u -> v (including u itself).  Section IV, first step."""
    n = graph.n
    zero_adj: List[List[int]] = [[] for _ in range(n)]
    for u, v, w in graph.edges():
        if w == 0:
            zero_adj[u].append(v)
    out: List[Set[int]] = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in zero_adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(seen)
    return out


def path_from_parents(parent: Sequence[Optional[int]], source: int, v: int
                      ) -> Optional[List[int]]:
    """Reconstruct the source -> v path from parent pointers; ``None`` if
    v is unreachable.  Detects pointer cycles (a malformed tree) and
    raises ``ValueError`` instead of looping forever."""
    if v == source:
        return [source]
    if parent[v] is None:
        return None
    path = [v]
    seen = {v}
    cur = v
    while cur != source:
        nxt = parent[cur]
        if nxt is None:
            return None
        if nxt in seen:
            raise ValueError(f"parent pointers contain a cycle through {nxt}")
        seen.add(nxt)
        path.append(nxt)
        cur = nxt
    path.reverse()
    return path


def apsp_matrix(graph: WeightedDigraph) -> np.ndarray:
    """All-pairs distance matrix via vectorized min-plus squaring.

    ``O(n^3 log n)`` NumPy work -- far faster than n Python Dijkstras for
    n above ~50, which is what the large-scale differential tests use.
    Returns ``out[x, v] = delta(x, v)`` with ``np.inf`` for unreachable.
    """
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in graph.edges():
        if w < dist[u, v]:
            dist[u, v] = float(w)
    # repeated squaring: D <- min_k D[:,k] + D[k,:]
    hops = 1
    while hops < n - 1:
        nxt = np.min(dist[:, :, None] + dist[None, :, :], axis=1)
        if np.array_equal(nxt, dist):
            break
        dist = nxt
        hops *= 2
    return dist
