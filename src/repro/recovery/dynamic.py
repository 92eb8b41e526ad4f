"""Incremental re-convergence under churn: the :class:`DynamicRun` driver.

The paper's algorithms compute APSP/k-SSP on a *static* graph.
:class:`DynamicRun` keeps a distance table live across a stream of graph
updates -- edge-weight changes, edge insertions/deletions, node
leave/join -- by recomputing only the **affected sources** after each
batch instead of re-running every source from scratch.

Affected-source rules (conservative supersets, never misses)
------------------------------------------------------------
For a directed arc ``u -> v`` changing from ``w_old`` to ``w_new``, with
the current table ``dist``:

* **improvement** (``w_new`` present): source ``s`` is affected iff
  ``dist[s][u] + w_new < dist[s][v]`` -- the new arc creates a shorter
  path through ``u``;
* **support loss** (``w_old`` present and the arc got worse or
  vanished): ``s`` is affected iff ``dist[s][u] + w_old == dist[s][v]``
  (finite) -- some shortest path to ``v`` may run through the changed
  arc (the equality test is exact because weights are integers);
* **node leave**: every source with a finite distance to the leaving
  node (plus the node itself if it is a source);
* **node join**: the improvement rule per added arc, plus the joining
  node if it is a source.

Unaffected sources provably keep their exact distance vectors, so
re-running only the affected ones through the existing k-source pipeline
yields the same table as a from-scratch recompute -- the chaos campaign
(:mod:`repro.recovery.chaos`) checks this against the Dijkstra oracle on
every batch.  The repair cost is reported as
``RunMetrics.rounds_to_repair`` (and mirrored into the obs registry),
with an optional from-scratch comparison run for the E21 ratio.

Node churn keeps a **fixed id universe**: a leaving node stays a valid
node id (isolated, infinite distances), and only previously known or
explicitly listed edges can accompany a join.  This matches the
simulator (programs exist per id) and the paper's model (n is global
knowledge).

Crash-during-update runs compose with the recovery layer: pass a
``fault_plan`` whose crash windows use ``restart_from="checkpoint"``
and every repair executes under :func:`repro.recovery.run_recoverable`
(per-source Bellman-Ford, merged sequentially), so a node can crash and
roll back *while a repair is in flight* and the table still converges --
:meth:`digest` is bit-identical across backends
(tests/test_recovery.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..congest.metrics import RunMetrics, merge_sequential
from ..graphs import WeightedDigraph
from ..graphs.digraph import check_weight

INF = float("inf")


# ---------------------------------------------------------------------------
# Update events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeUpdate:
    """Set arc ``u -> v`` (both directions on an undirected graph) to
    ``weight``; ``weight=None`` deletes the edge."""

    u: int
    v: int
    weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop update ({self.u},{self.v})")
        if self.weight is not None:
            check_weight(self.u, self.v, self.weight)


@dataclass(frozen=True)
class NodeLeave:
    """Remove every edge incident to ``node`` (the id stays valid)."""

    node: int


@dataclass(frozen=True)
class NodeJoin:
    """(Re-)attach ``node`` with the given incident edges
    ``(u, v, w)`` -- each must touch ``node``."""

    node: int
    edges: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(
            (u, v, w) for u, v, w in self.edges))
        for u, v, w in self.edges:
            if self.node not in (u, v):
                raise ValueError(
                    f"join edge ({u},{v},{w}) does not touch node "
                    f"{self.node}")
            if u == v:
                raise ValueError(f"self-loop join edge ({u},{v})")
            check_weight(u, v, w)


Event = Any  # EdgeUpdate | NodeLeave | NodeJoin


@dataclass
class RepairRecord:
    """What one :meth:`DynamicRun.apply` batch did."""

    events: Tuple[Event, ...]
    affected: Tuple[int, ...]
    rounds_to_repair: int
    #: From-scratch recompute rounds on the updated graph (only when the
    #: run was built with ``compare_full=True``); the E21 ratio.
    full_rounds: Optional[int] = None


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class DynamicRun:
    """A live k-source distance table over a mutating graph.

    Parameters
    ----------
    graph:
        The initial :class:`~repro.graphs.WeightedDigraph`.
    sources:
        Source set to maintain (default: all nodes = APSP).
    method:
        Pipeline selection passed to :func:`repro.core.api.k_ssp`
        (``"auto"``, ``"pipelined"``, ``"bellman-ford"``, ...) for
        fault-free runs.
    fault_plan:
        When given, every (re)compute runs per-source Bellman-Ford under
        :func:`~repro.recovery.run_recoverable` with this plan --
        checkpoint crash windows then exercise crash-during-update
        recovery.  (The plan's window rounds are relative to each
        repair execution.)
    monitor_factory:
        Optional ``f(graph, sources) -> monitor`` attached to every
        compute (e.g. :func:`~repro.recovery.recovery_monitor`, or
        Invariants 1+2 via ``pipelined_invariants`` for
        ``method="pipelined"``).
    compare_full:
        Also run a from-scratch recompute per batch and record its
        rounds in :attr:`RepairRecord.full_rounds` (costly; for E21).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; accumulated
        metrics (including ``rounds_to_repair``) are mirrored after the
        initial compute and every batch.

    Next to :attr:`table` the run keeps per-source parent pointers
    (:attr:`parents`), repaired alongside it on every batch: what a
    routing/serving layer (:mod:`repro.serve`) needs to wrap the
    repaired rows in a :class:`~repro.core.RoutingTable`.  ``apply``
    replaces the affected sources' entries of both dicts in place, so
    a caller that must keep an epoch's rows copies the dicts.
    """

    def __init__(self, graph: WeightedDigraph,
                 sources: Optional[Sequence[int]] = None, *,
                 method: str = "auto",
                 backend: Optional[str] = None,
                 fault_plan: Any = None,
                 checkpoint_every: int = 8,
                 max_rounds: Optional[int] = None,
                 monitor_factory: Optional[Callable[..., Any]] = None,
                 compare_full: bool = False,
                 registry: Any = None) -> None:
        if sources is None:
            sources = range(graph.n)
        self.sources: Tuple[int, ...] = tuple(dict.fromkeys(sources))
        for s in self.sources:
            if not (0 <= s < graph.n):
                raise ValueError(
                    f"source {s} out of range for n={graph.n}")
        self.n = graph.n
        self.directed = graph.directed
        self.method = method
        self.backend = backend
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.max_rounds = max_rounds
        self.monitor_factory = monitor_factory
        self.compare_full = compare_full
        self.registry = registry
        self._published = None

        self.graph = graph
        self._arcs: Dict[Tuple[int, int], int] = {
            (u, v): w for u, v, w in graph.edges()}
        self.history: List[RepairRecord] = []
        #: Per-source distance rows and parent pointers.
        self.table, self.parents, self.metrics = self._compute(
            graph, self.sources)
        self._publish()

    # -- graph bookkeeping --------------------------------------------

    def _rebuild(self, arcs: Dict[Tuple[int, int], int]) -> WeightedDigraph:
        # Undirected graphs are stored as symmetric digraphs; feeding
        # the symmetric arc set back through from_edges(directed=False)
        # is idempotent (parallel edges collapse to the min, and the
        # set is already symmetric).
        return WeightedDigraph.from_edges(
            self.n, [(u, v, w) for (u, v), w in sorted(arcs.items())],
            directed=self.directed)

    def _arcs_of(self, u: int, v: int) -> List[Tuple[int, int]]:
        return [(u, v)] if self.directed else [(u, v), (v, u)]

    def _apply_events(self, events: Sequence[Event]
                      ) -> Dict[Tuple[int, int], int]:
        arcs = dict(self._arcs)
        for ev in events:
            if isinstance(ev, EdgeUpdate):
                for a, b in ((ev.u, ev.v),):
                    if not (0 <= a < self.n and 0 <= b < self.n):
                        raise ValueError(
                            f"edge update ({a},{b}) out of range for "
                            f"n={self.n}")
                for key in self._arcs_of(ev.u, ev.v):
                    if ev.weight is None:
                        if key in arcs:
                            del arcs[key]
                    else:
                        arcs[key] = ev.weight
            elif isinstance(ev, NodeLeave):
                if not (0 <= ev.node < self.n):
                    raise ValueError(
                        f"leave of node {ev.node} out of range for "
                        f"n={self.n}")
                for key in [k for k in arcs if ev.node in k]:
                    del arcs[key]
            elif isinstance(ev, NodeJoin):
                if not (0 <= ev.node < self.n):
                    raise ValueError(
                        f"join of node {ev.node} out of range for "
                        f"n={self.n}")
                for u, v, w in ev.edges:
                    if not (0 <= u < self.n and 0 <= v < self.n):
                        raise ValueError(
                            f"join edge ({u},{v}) out of range for "
                            f"n={self.n}")
                    for key in self._arcs_of(u, v):
                        arcs[key] = min(w, arcs.get(key, w))
            else:
                raise TypeError(
                    f"unknown dynamic event {ev!r} (expected EdgeUpdate, "
                    f"NodeLeave, or NodeJoin)")
        return arcs

    # -- affected-source analysis -------------------------------------

    def _affected(self, events: Sequence[Event],
                  new_arcs: Dict[Tuple[int, int], int]) -> Tuple[int, ...]:
        affected = set()
        dist = self.table

        def arc_changed(a: int, b: int, w_old: Optional[int],
                        w_new: Optional[int]) -> None:
            if w_old == w_new:
                return
            for s in self.sources:
                if s in affected:
                    continue
                du, dv = dist[s][a], dist[s][b]
                if w_new is not None and du + w_new < dv:
                    affected.add(s)          # improvement through a -> b
                elif (w_old is not None and du < INF
                      and du + w_old == dv
                      and (w_new is None or w_new > w_old)):
                    affected.add(s)          # possible support loss

        for ev in events:
            if isinstance(ev, EdgeUpdate):
                for a, b in self._arcs_of(ev.u, ev.v):
                    arc_changed(a, b, self._arcs.get((a, b)), ev.weight)
            elif isinstance(ev, NodeLeave):
                for s in self.sources:
                    if s == ev.node or dist[s][ev.node] < INF:
                        affected.add(s)
            elif isinstance(ev, NodeJoin):
                if ev.node in self.sources:
                    affected.add(ev.node)
                for u, v, w in ev.edges:
                    for a, b in self._arcs_of(u, v):
                        arc_changed(a, b, self._arcs.get((a, b)),
                                    new_arcs.get((a, b)))
        return tuple(s for s in self.sources if s in affected)

    # -- (re)computation ----------------------------------------------

    def _default_max_rounds(self, graph: WeightedDigraph) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        n = graph.n
        if self.fault_plan is not None:
            return 40 * (n + 2) + 200
        return 20 * (n + 2) + 100

    def _compute(self, graph: WeightedDigraph, sources: Sequence[int]
                 ) -> Tuple[Dict[int, List[float]],
                            Dict[int, List[Optional[int]]], RunMetrics]:
        """Distance rows and parent rows for *sources* on *graph*, plus
        the execution metrics (the repair pipeline; identical on both
        backends)."""
        if not sources:
            return {}, {}, RunMetrics()
        monitor = (self.monitor_factory(graph, tuple(sources))
                   if self.monitor_factory is not None else None)
        if self.fault_plan is not None:
            return self._compute_recoverable(graph, sources, monitor)
        from ..core.api import k_ssp
        kwargs: Dict[str, Any] = {}
        if monitor is not None:
            kwargs["monitor"] = monitor
        res = k_ssp(graph, list(sources), method=self.method,
                    backend=self.backend, **kwargs)
        return ({s: res.dist[s] for s in sources},
                {s: res.parent[s] for s in sources}, res.metrics)

    def _compute_recoverable(self, graph: WeightedDigraph,
                             sources: Sequence[int], monitor: Any
                             ) -> Tuple[Dict[int, List[float]],
                                        Dict[int, List[Optional[int]]],
                                        RunMetrics]:
        from ..core.bellman_ford import BellmanFordProgram
        from .recover import run_recoverable
        dist: Dict[int, List[float]] = {}
        parents: Dict[int, List[Optional[int]]] = {}
        parts: List[RunMetrics] = []
        max_rounds = self._default_max_rounds(graph)
        for s in sources:
            # Sharing one monitor across the sequential per-source runs
            # is safe: its baselines are keyed per source, and each
            # source appears in exactly one run.
            outputs, metrics, _net, _stats = run_recoverable(
                graph, lambda v, s=s: BellmanFordProgram(v, s),
                max_rounds, fault_plan=self.fault_plan,
                checkpoint_every=self.checkpoint_every,
                backend=self.backend, monitor=monitor)
            dist[s] = [out[0] for out in outputs]
            parents[s] = [out[2] for out in outputs]
            parts.append(metrics)
        return dist, parents, merge_sequential(*parts)

    # -- the public driver --------------------------------------------

    def apply(self, *events: Event) -> RepairRecord:
        """Apply one batch of events and repair the table.

        Computes the affected-source set *before* mutating the graph
        (the rules read the pre-update table), rebuilds the graph, and
        re-runs only the affected sources.  Returns the
        :class:`RepairRecord` (also appended to :attr:`history`).
        """
        if not events:
            raise ValueError("apply() needs at least one event")
        new_arcs = self._apply_events(events)
        affected = self._affected(events, new_arcs)
        new_graph = self._rebuild(new_arcs)

        repaired, repaired_parents, repair_metrics = self._compute(
            new_graph, affected)
        self.table.update(repaired)
        self.parents.update(repaired_parents)
        repair_metrics.rounds_to_repair = repair_metrics.rounds
        self.metrics = self.metrics.merged_with(repair_metrics)

        full_rounds: Optional[int] = None
        if self.compare_full:
            _, _, full_metrics = self._compute(new_graph, self.sources)
            full_rounds = full_metrics.rounds

        self.graph = new_graph
        self._arcs = new_arcs
        record = RepairRecord(tuple(events), affected,
                              repair_metrics.rounds, full_rounds)
        self.history.append(record)
        self._publish()
        return record

    def _publish(self) -> None:
        if self.registry is None:
            return
        from ..obs.registry import publish_run_metrics
        self._published = publish_run_metrics(
            self.registry, self.metrics, prefix="congest",
            state=self._published)

    # -- verification and digests -------------------------------------

    def oracle_check(self) -> List[Tuple[int, int, float, float]]:
        """Mismatches ``(source, node, got, want)`` against a fresh
        Dijkstra run on the current graph (empty = correct)."""
        from ..graphs.reference import dijkstra
        bad: List[Tuple[int, int, float, float]] = []
        for s in self.sources:
            want = dijkstra(self.graph, s)[0]
            got = self.table[s]
            for v in range(self.n):
                if got[v] != want[v]:
                    bad.append((s, v, got[v], want[v]))
        return bad

    def digest(self) -> str:
        """SHA-256 over the table, repair history, and metrics summary
        -- bit-identical across backends for identical executions."""
        payload = {
            "sources": list(self.sources),
            "table": {str(s): [repr(float(d)) for d in self.table[s]]
                      for s in self.sources},
            "history": [
                {"affected": list(rec.affected),
                 "rounds_to_repair": rec.rounds_to_repair,
                 "full_rounds": rec.full_rounds,
                 "events": [repr(e) for e in rec.events]}
                for rec in self.history],
            "metrics": {k: v for k, v in sorted(
                self.metrics.summary().items())},
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
