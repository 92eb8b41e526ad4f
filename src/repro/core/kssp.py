"""Algorithm 3 -- the faster k-SSP / APSP algorithm (paper, Section III).

Pipeline (same structure as [3], with the paper's new Steps 1-2):

1. build an h-hop CSSSP collection for the source set ``S``
   (Section III-A: Algorithm 1 with hop bound 2h) --
   ``O(sqrt(Delta h k) + h + k)`` rounds;
2. compute a greedy blocker set ``Q`` of size ``O((n log n)/h)`` for the
   collection (Section III-B, with Algorithm 4 inside) ;
3. for each ``c in Q`` in sequence: exact SSSP tree rooted at ``c``
   (distributed Bellman-Ford, at most n rounds each);
4. for each ``c in Q`` in sequence: broadcast ``ID(c)`` and the h-hop
   tree distances ``delta_T(x, c)`` for every source ``x`` (pipelined
   over a BFS spanning tree, ``O(D + k)`` rounds each);
5. local combine at every node v:

       delta(x, v) = min( delta_T(x, v),
                          min_{c in Q} delta_T(x, c) + delta(c, v) )

Correctness sketch (recorded here because the combine rule is stated
only implicitly in the paper): take a shortest x->v path with minimal
hop count L.  If ``L <= h`` the CSSSP tree already carries delta(x, v).
Otherwise its depth-h prefix endpoint ``u`` has ``minhop(x, u) = h``
(a shorter-hop prefix would shorten L), so ``u`` sits at depth h of
``T_x`` and the blocker set puts some ``c`` on the tree path to ``u``;
``delta_T(x, c) = delta(x, c)`` by CSSSP consistency, and
``delta(c, v) <= (delta(x, u) - delta(x, c)) + (delta(x, v) -
delta(x, u))``, so the combine term equals ``delta(x, v)``.  Hence the
output is the *exact* (unbounded-hop) k-SSP distance -- which is what
Theorems I.2/I.3 claim.

The round budget (Lemma III.2) is ``O(n^2 log n / h + sqrt(Delta h k))``;
:func:`repro.bounds.optimal_h_distance_bounded` /
:func:`repro.bounds.optimal_h_weight_bounded` pick the ``h`` that proves
Theorems I.3 / I.2 respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import bounds as bounds_mod
from ..congest import RunMetrics, build_bfs_tree, merge_sequential, pipelined_broadcast
from ..graphs.digraph import WeightedDigraph
from .bellman_ford import run_bellman_ford
from .blocker import BlockerResult, compute_blocker_set
from .csssp import CSSSPCollection, build_csssp

INF = float("inf")


@dataclass
class KSSPResult:
    """Result of Algorithm 3: exact shortest-path distances from each
    source, with full phase-by-phase round accounting."""

    sources: Tuple[int, ...]
    h: int
    dist: Dict[int, List[float]]
    #: ``parent[x][v]`` -- the last edge of a shortest x->v path (the
    #: CONGEST output spec includes it): from the CSSSP tree when the
    #: h-hop path wins the combine, from the blocker's SSSP tree when a
    #: blocker path wins.
    parent: Dict[int, List[Optional[int]]]
    metrics: RunMetrics
    blockers: List[int]
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    csssp: Optional[CSSSPCollection] = None
    blocker_result: Optional[BlockerResult] = None

    @property
    def total_rounds(self) -> int:
        return self.metrics.rounds


def run_kssp_blocker(graph: WeightedDigraph, sources: Sequence[int],
                     h: Optional[int] = None, *,
                     delta: Optional[int] = None,
                     concurrent_sssp: bool = False,
                     keep_structures: bool = False,
                     tracer: Optional[object] = None,
                     registry: Optional[object] = None) -> KSSPResult:
    """Run Algorithm 3 for *sources* with hop parameter *h*.

    ``h`` defaults to the Theorem I.2 choice based on the graph's maximum
    edge weight.  Exactness of the returned distances does not depend on
    the choice of ``h``; only the round count does.

    ``concurrent_sssp`` replaces Step 3's sequential per-blocker
    Bellman-Ford runs (the paper's ``O(n q)`` bound) with one composed
    execution on the FIFO multiplexer -- Bellman-Ford relaxations are
    delay-tolerant, so the q instances share the network and the phase
    costs roughly ``max dilation + total congestion`` instead of the
    sum of dilations.  An extension beyond the paper (which leaves
    improving these steps as future work in [3]); output is identical.

    ``tracer`` records one top-level span per phase (csssp, blocker-set,
    blocker-sssp, bfs-tree, broadcast), each carrying its round count --
    the spans sum to ``metrics.rounds``, which ``repro obs`` cross-checks
    -- plus a ``blocker.elect`` event per elected blocker node.
    ``registry`` receives the merged end-of-run metrics mirror.
    """
    from contextlib import nullcontext

    def span(name: str, **attrs):
        return tracer.span(name, **attrs) if tracer is not None \
            else nullcontext(None)
    srcs = tuple(dict.fromkeys(sources))
    if not srcs:
        raise ValueError("need at least one source")
    n = graph.n
    k = len(srcs)
    if h is None:
        h = bounds_mod.optimal_h_weight_bounded(n, k, graph.max_weight)
    h = max(1, min(h, n))

    # Step 1: h-hop CSSSP (Algorithm 1 with hop bound 2h).
    with span("csssp", h=h, k=k) as sp:
        coll = build_csssp(graph, srcs, h, delta, tracer=tracer)
        if sp is not None:
            sp.set(rounds=coll.metrics.rounds)
    metrics = coll.metrics
    phase_rounds = {"csssp": coll.metrics.rounds}

    # Step 2: blocker set.
    with span("blocker-set") as sp:
        blk = compute_blocker_set(graph, coll)
        if sp is not None:
            sp.set(rounds=blk.metrics.rounds, q=len(blk.blockers))
            for i, c in enumerate(blk.blockers):
                tracer.emit(blk.metrics.rounds, c, "blocker.elect", i)
    metrics = merge_sequential(metrics, blk.metrics)
    phase_rounds["blocker_set"] = blk.metrics.rounds
    phase_rounds.update({f"blocker/{k_}": v for k_, v in blk.phase_rounds.items()})

    # Step 3: exact SSSP from every blocker node -- sequentially (the
    # paper's O(n q) accounting) or concurrently on the multiplexer.
    delta_cv: Dict[int, List[float]] = {}
    phase_rounds["blocker_sssp"] = 0
    parent_cv: Dict[int, List[Optional[int]]] = {}
    with span("blocker-sssp", q=len(blk.blockers),
              concurrent=concurrent_sssp) as sp:
        if concurrent_sssp and blk.blockers:
            from ..congest.scheduler import MultiplexedNetwork
            from .bellman_ford import BellmanFordProgram

            factories = [(lambda c_: (lambda v: BellmanFordProgram(v, c_)))(c)
                         for c in blk.blockers]
            net = MultiplexedNetwork(graph, factories, tracer=tracer)
            m = net.run(max_rounds=4 * n * max(1, len(blk.blockers)) + 64)
            metrics = merge_sequential(metrics, m)
            phase_rounds["blocker_sssp"] = m.rounds
            for i, c in enumerate(blk.blockers):
                outs = net.outputs(i)
                delta_cv[c] = [out[0] for out in outs]
                parent_cv[c] = [out[2] for out in outs]
        else:
            for c in blk.blockers:
                bf = run_bellman_ford(graph, c, tracer=tracer)
                delta_cv[c] = bf.dist
                parent_cv[c] = bf.parent
                metrics = merge_sequential(metrics, bf.metrics)
                phase_rounds["blocker_sssp"] += bf.metrics.rounds
        if sp is not None:
            sp.set(rounds=phase_rounds["blocker_sssp"])

    # Step 4: broadcast, for each c, the pairs (x, delta_T(x, c)).
    with span("bfs-tree") as sp:
        bfs = build_bfs_tree(graph, root=0)
        if sp is not None:
            sp.set(rounds=bfs.metrics.rounds)
    metrics = merge_sequential(metrics, bfs.metrics)
    phase_rounds["bfs_tree"] = bfs.metrics.rounds
    phase_rounds["broadcast"] = 0
    delta_xc: Dict[int, Dict[int, float]] = {}  # c -> {x: delta_T(x, c)}
    with span("broadcast", q=len(blk.blockers)) as sp:
        for c in blk.blockers:
            values = [("bc", x, int(coll.dist[x][c]))
                      for x in srcs if coll.contains(x, c)]
            delta_xc[c] = {x: coll.dist[x][c] for x in srcs if coll.contains(x, c)}
            if values:
                _, m = pipelined_broadcast(graph, bfs, values)
                metrics = merge_sequential(metrics, m)
                phase_rounds["broadcast"] += m.rounds
        if sp is not None:
            sp.set(rounds=phase_rounds["broadcast"])

    # Step 5: local combine (no communication).
    dist: Dict[int, List[float]] = {}
    parent: Dict[int, List[Optional[int]]] = {}
    for x in srcs:
        row = [INF] * n
        prow: List[Optional[int]] = [None] * n
        for v in range(n):
            best = coll.dist[x][v]
            bp = coll.parent[x][v]
            for c in blk.blockers:
                dxc = delta_xc[c].get(x, INF)
                if dxc != INF and delta_cv[c][v] != INF:
                    cand = dxc + delta_cv[c][v]
                    if cand < best:
                        best = cand
                        # v == c means the blocker itself is the target:
                        # the last edge is the one into c on T_x.
                        bp = parent_cv[c][v] if v != c else coll.parent[x][c]
            row[v] = best
            prow[v] = bp
        dist[x] = row
        parent[x] = prow

    if registry is not None:
        from ..obs.registry import publish_run_metrics
        publish_run_metrics(registry, metrics)

    return KSSPResult(
        sources=srcs, h=h, dist=dist, parent=parent, metrics=metrics,
        blockers=list(blk.blockers), phase_rounds=phase_rounds,
        csssp=coll if keep_structures else None,
        blocker_result=blk if keep_structures else None,
    )


def run_apsp_blocker(graph: WeightedDigraph, h: Optional[int] = None,
                     **kwargs) -> KSSPResult:
    """Theorem I.2(i) / I.3(i): APSP via Algorithm 3 with ``S = V``."""
    return run_kssp_blocker(graph, range(graph.n), h, **kwargs)
