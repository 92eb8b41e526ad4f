"""Hop-limited (h-hop) shortest-path oracles.

The paper's central object is the *h-hop shortest path*: a minimum-weight
path among those with at most ``h`` edges (Section I-A).  These sequential
oracles compute h-hop distances exactly and are the ground truth for
Algorithm 1 / Algorithm 2 tests and for the CSSSP checker.

Two implementations are provided:

* :func:`hop_limited_sssp` -- per-source dynamic program over hop count
  (Bellman-Ford truncated at ``h`` iterations), also returning, for every
  node, the minimum hop count among h-hop-shortest paths (the tie-break
  Algorithm 1's Step 9 computes);
* :func:`hop_limited_apsp_matrix` -- a NumPy min-plus power iteration for
  all sources at once.  This is the vectorized fast path (guide: vectorize
  the measured bottleneck); it is differential-tested against the scalar
  DP.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .digraph import WeightedDigraph

INF = float("inf")


def hop_limited_sssp(graph: WeightedDigraph, source: int, h: int
                     ) -> Tuple[List[float], List[float]]:
    """h-hop distances and minimal hop counts from *source*.

    Returns ``(dist, hops)`` where ``dist[v]`` is the minimum weight of a
    path source -> v with at most *h* edges (``inf`` if none exists) and
    ``hops[v]`` is the minimum number of edges among such minimum-weight
    paths.

    The DP runs over hop counts: ``d[j][v]`` = best weight using exactly
    <= j hops.  Zero-weight edges need no special care here because the
    hop budget strictly decreases along a relaxation chain.
    """
    if h < 0:
        raise ValueError(f"hop bound must be >= 0, got {h}")
    n = graph.n
    dist: List[float] = [INF] * n
    hops: List[float] = [INF] * n
    dist[source] = 0
    hops[source] = 0
    # frontier DP: best[j][v] after j iterations == min over <=j-hop paths
    cur = dict([(source, 0)])
    for j in range(1, h + 1):
        nxt: Dict[int, int] = {}
        for u, du in cur.items():
            for v, w in graph.out_edges(u):
                nd = du + w
                old = nxt.get(v)
                if old is None or nd < old:
                    nxt[v] = nd
        for v, nd in nxt.items():
            if nd < dist[v]:
                dist[v] = nd
                hops[v] = j  # first j achieving the value = minimal hops
        # Keep expanding any node whose <=j-hop value could still seed a
        # better <=j+1-hop value elsewhere: the standard frontier is all
        # nodes whose exact-j-hop value equals their current best OR whose
        # exact-j-hop value might extend to an improvement.  To stay exact
        # we carry the full exact-j-hop layer.
        cur = nxt
        if not cur:
            break
    return dist, hops


def hop_limited_sssp_exact_hops(graph: WeightedDigraph, source: int, h: int
                                ) -> List[List[float]]:
    """Matrix ``d[j][v]`` = minimum weight over paths with *exactly* j hops
    (``inf`` if none), for j in 0..h.  Exposed for property tests."""
    n = graph.n
    layers: List[List[float]] = [[INF] * n for _ in range(h + 1)]
    layers[0][source] = 0
    for j in range(1, h + 1):
        prev, cur = layers[j - 1], layers[j]
        for u in range(n):
            du = prev[u]
            if du == INF:
                continue
            for v, w in graph.out_edges(u):
                nd = du + w
                if nd < cur[v]:
                    cur[v] = nd
    return layers


def hop_limited_apsp_matrix(graph: WeightedDigraph, h: int) -> np.ndarray:
    """All-pairs h-hop distance matrix via min-plus iteration.

    ``out[x, v]`` is the h-hop distance from x to v (``np.inf`` when no
    path with <= h hops exists).  O(h * n * m) with NumPy inner loops over
    edges batched per iteration.
    """
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    if h == 0 or graph.m == 0:
        return dist
    us, vs, ws = [], [], []
    for u, v, w in graph.edges():
        us.append(u)
        vs.append(v)
        ws.append(w)
    ua = np.asarray(us)
    va = np.asarray(vs)
    wa = np.asarray(ws, dtype=float)
    cur = dist.copy()
    for _ in range(h):
        # relax every edge once: cand[:, v] = cur[:, u] + w(u, v)
        cand = cur[:, ua] + wa[None, :]
        nxt = cur.copy()
        # np.minimum.at handles repeated target columns correctly
        np.minimum.at(nxt, (slice(None), va), cand)
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    return cur


def hop_limited_k_source(graph: WeightedDigraph, sources: Sequence[int], h: int
                         ) -> Dict[int, Tuple[List[float], List[float]]]:
    """(h, k)-SSP oracle: ``{source: (dist, min_hops)}`` for each source."""
    return {s: hop_limited_sssp(graph, s, h) for s in sources}


def h_hop_distance_bound(graph: WeightedDigraph, sources: Sequence[int], h: int) -> int:
    """The paper's ``Delta`` for an (h, k)-SSP instance: the maximum finite
    h-hop shortest-path distance from any source in S."""
    best = 0
    for s in sources:
        dist, _ = hop_limited_sssp(graph, s, h)
        for x in dist:
            if x != INF and x > best:
                best = int(x)
    return best
