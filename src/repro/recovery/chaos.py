"""Seeded chaos campaign: randomized fault plans x update streams.

Every case is generated deterministically from one seed -- a random
graph, a source set, a fault plan (delays, duplicates, and a
checkpoint-restart crash window), and a stream of update batches
(edge reweights, insertions, deletions, node leave/join).  Each case is
then executed twice:

* a **crash-during-update** :class:`~repro.recovery.DynamicRun` --
  per-source Bellman-Ford under :func:`~repro.recovery.run_recoverable`
  with the fault plan, so nodes crash, roll back to snapshots, and
  replay *while repairs are streaming in*; monitored by the
  rollback-aware oracle monitor;
* a fault-free **pipelined** :class:`~repro.recovery.DynamicRun` of the
  same update stream, monitored by the paper's Invariants 1+2 plus the
  Dijkstra lower bound.

After every batch, both tables are checked against a fresh Dijkstra run
on the updated graph, and the pipelined run's parent rows must pass
:meth:`~repro.core.RoutingTable.validate`: they are the shortest-path
trees its support-loss rule reads (:mod:`repro.recovery.dynamic`).  The
crash-during-update run's parent rows are left out, because a
checkpoint rollback can leave them cycling over zero-weight arcs.
:func:`run_chaos_campaign` additionally executes each case on both
simulator backends and requires bit-identical
:meth:`~repro.recovery.DynamicRun.digest` values.  The fault plans stay
inside the recovery layer's contract -- no drops or corruption (those
need the ack/retransmit layer, which must NOT be composed with
checkpoint rollback; see docs/RECOVERY.md).

Run a small campaign from the command line (the CI ``chaos-smoke`` job)::

    PYTHONPATH=src python -m repro.recovery.chaos --seeds 0 1 2
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.routing import RoutingTable
from ..faults.monitor import (
    DistanceLowerBound,
    DistanceMonotonicity,
    InvariantMonitor,
    PipelineBudgetInvariant,
    PipelineScheduleInvariant,
)
from ..faults.plan import CrashWindow, FaultPlan
from ..graphs import WeightedDigraph, random_graph
from .dynamic import DynamicRun, EdgeUpdate, NodeJoin, NodeLeave
from .recover import RollbackAwareMonotonicity


@dataclass(frozen=True)
class ChaosCase:
    """One deterministic chaos scenario (everything derives from seed)."""

    seed: int
    n: int = 9
    p: float = 0.35
    w_max: int = 6
    k: int = 3
    batches: int = 2
    events_per_batch: int = 2


@dataclass
class ChaosOutcome:
    """What one case did on one backend."""

    case: ChaosCase
    backend: str
    mismatches: int
    rollbacks_possible: bool
    rounds_to_repair: int
    digest_recoverable: str
    digest_pipelined: str
    records: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def build_case(case: ChaosCase
               ) -> Tuple[WeightedDigraph, Tuple[int, ...], FaultPlan,
                          List[List[Any]]]:
    """Materialize a case: ``(graph, sources, plan, update_batches)``."""
    rng = random.Random(case.seed * 0x9E3779B1 + 7)
    directed = rng.random() < 0.5
    graph = random_graph(case.n, p=case.p, w_max=case.w_max,
                         zero_fraction=0.2, directed=directed,
                         seed=case.seed)
    sources = tuple(sorted(rng.sample(range(case.n), case.k)))

    crash_node = rng.randrange(case.n)
    crash_round = rng.randint(3, 8)
    window = CrashWindow(crash_node, crash_round,
                         crash_round + rng.randint(3, 8),
                         restart_from="checkpoint")
    plan = FaultPlan(
        seed=case.seed,
        delay_rate=rng.choice((0.0, 0.05, 0.15)),
        duplicate_rate=rng.choice((0.0, 0.05, 0.1)),
        max_delay=rng.randint(1, 3),
        crashes=(window,))

    # Generate the update stream against a local arc view, so every
    # event is valid at its point in the stream.
    arcs: Dict[Tuple[int, int], int] = {
        (u, v): w for u, v, w in graph.edges()}

    def canonical() -> List[Tuple[int, int]]:
        if directed:
            return sorted(arcs)
        return sorted((u, v) for (u, v) in arcs if u < v)

    def set_arc(u: int, v: int, w: Optional[int]) -> None:
        keys = [(u, v)] if directed else [(u, v), (v, u)]
        for key in keys:
            if w is None:
                arcs.pop(key, None)
            else:
                arcs[key] = w

    removed: Dict[int, List[Tuple[int, int, int]]] = {}
    batches: List[List[Any]] = []
    for _ in range(case.batches):
        batch: List[Any] = []
        for _ in range(case.events_per_batch):
            kinds = ["reweight", "insert"]
            if len(canonical()) > case.n:  # keep some connectivity
                kinds.append("delete")
            leavable = [v for v in range(case.n)
                        if v not in sources and v not in removed
                        and any(v in key for key in arcs)]
            if leavable:
                kinds.append("leave")
            if removed:
                kinds.append("join")
            kind = rng.choice(kinds)
            if kind == "reweight" and canonical():
                u, v = rng.choice(canonical())
                w = rng.randint(0, case.w_max)
                batch.append(EdgeUpdate(u, v, w))
                set_arc(u, v, w)
            elif kind == "delete":
                u, v = rng.choice(canonical())
                batch.append(EdgeUpdate(u, v, None))
                set_arc(u, v, None)
            elif kind == "insert":
                u = rng.randrange(case.n)
                v = rng.randrange(case.n)
                if u == v or (u, v) in arcs or u in removed or v in removed:
                    continue  # skip instead of forcing an awkward event
                w = rng.randint(0, case.w_max)
                batch.append(EdgeUpdate(u, v, w))
                set_arc(u, v, w)
            elif kind == "leave":
                node = rng.choice(leavable)
                saved = sorted(
                    (u, v, w) for (u, v), w in arcs.items()
                    if node in (u, v) and (directed or u < v))
                removed[node] = saved
                batch.append(NodeLeave(node))
                for u, v, _w in saved:
                    set_arc(u, v, None)
            elif kind == "join":
                node = rng.choice(sorted(removed))
                saved = [(u, v, w) for (u, v, w) in removed.pop(node)
                         if u not in removed and v not in removed]
                batch.append(NodeJoin(node, tuple(saved)))
                for u, v, w in saved:
                    set_arc(u, v, w)
        if batch:
            batches.append(batch)
    if not batches:
        # Degenerate stream (tiny graphs): fall back to one reweight.
        u, v, w = next(iter(sorted(graph.edges())))
        batches = [[EdgeUpdate(u, v, min(case.w_max, w + 1))]]
    return graph, sources, plan, batches


def _recovery_monitor_factory(graph: Any, sources: Sequence[int]
                              ) -> InvariantMonitor:
    from ..graphs.reference import dijkstra
    true_dist = {s: dijkstra(graph, s)[0] for s in sources}
    return InvariantMonitor(
        [RollbackAwareMonotonicity(), DistanceLowerBound(true_dist)])


def _pipelined_monitor_factory(graph: Any, sources: Sequence[int]
                               ) -> InvariantMonitor:
    from ..graphs.reference import dijkstra
    true_dist = {s: dijkstra(graph, s)[0] for s in sources}
    return InvariantMonitor(
        [PipelineScheduleInvariant(), PipelineBudgetInvariant(),
         DistanceMonotonicity(), DistanceLowerBound(true_dist)])


def run_chaos_case(case: ChaosCase, *,
                   backend: Optional[str] = None) -> ChaosOutcome:
    """Execute one case on one backend; every batch is oracle-checked."""
    graph, sources, plan, batches = build_case(case)

    faulty = DynamicRun(graph, sources, fault_plan=plan,
                        checkpoint_every=4,
                        monitor_factory=_recovery_monitor_factory,
                        backend=backend)
    clean = DynamicRun(graph, sources, method="pipelined",
                       monitor_factory=_pipelined_monitor_factory,
                       backend=backend)

    mismatches = 0
    records: List[Any] = []
    for batch in batches:
        records.append(faulty.apply(*batch))
        clean.apply(*batch)
        mismatches += len(faulty.oracle_check())
        mismatches += len(clean.oracle_check())
        mismatches += len(RoutingTable(clean.graph, clean.table,
                                       clean.parents).validate(
                                           raise_on_violation=False))

    return ChaosOutcome(
        case=case, backend=backend or "ambient",
        mismatches=mismatches,
        rollbacks_possible=any(
            cw.restart_from == "checkpoint" for cw in plan.crashes),
        rounds_to_repair=faulty.metrics.rounds_to_repair,
        digest_recoverable=faulty.digest(),
        digest_pipelined=clean.digest(),
        records=records)


def run_chaos_campaign(seeds: Sequence[int] = (0, 1, 2), *,
                       case_kwargs: Optional[Dict[str, Any]] = None,
                       backends: Sequence[str] = ("reference", "columnar")
                       ) -> List[Dict[str, Any]]:
    """Run every seed on every backend; raise ``AssertionError`` on any
    oracle mismatch or cross-backend digest divergence.  Returns one
    summary row per seed."""
    rows: List[Dict[str, Any]] = []
    for seed in seeds:
        case = ChaosCase(seed=seed, **(case_kwargs or {}))
        outcomes = [run_chaos_case(case, backend=b) for b in backends]
        for out in outcomes:
            assert out.ok, (
                f"chaos seed {seed} backend {out.backend}: "
                f"{out.mismatches} oracle mismatches after updates")
        first = outcomes[0]
        for out in outcomes[1:]:
            assert out.digest_recoverable == first.digest_recoverable, (
                f"chaos seed {seed}: recoverable digest diverged between "
                f"{first.backend} ({first.digest_recoverable[:12]}) and "
                f"{out.backend} ({out.digest_recoverable[:12]})")
            assert out.digest_pipelined == first.digest_pipelined, (
                f"chaos seed {seed}: pipelined digest diverged between "
                f"{first.backend} and {out.backend}")
        rows.append({
            "seed": seed,
            "backends": ",".join(backends),
            "batches": len(first.records),
            "affected_total": sum(len(r.affected) for r in first.records),
            "rounds_to_repair": first.rounds_to_repair,
            "digest": first.digest_recoverable[:12],
            "ok": 1,
        })
    return rows


def main(argv: Optional[Sequence[int]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="run a seeded chaos campaign on both backends")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--batches", type=int, default=2)
    args = parser.parse_args(argv)
    rows = run_chaos_campaign(
        args.seeds, case_kwargs={"n": args.n, "batches": args.batches})
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))
    print(f"chaos campaign OK: {len(rows)} seeds x reference+columnar, "
          f"all oracle-verified, digests bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
