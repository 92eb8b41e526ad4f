"""Runtime invariant monitoring: turn silent corruption into located failures.

A fault-free CONGEST run of the paper's algorithms maintains strong
structural invariants; a faulty (or buggy) run that violates one keeps
executing and quietly produces wrong distances.  An
:class:`InvariantMonitor` attached to a
:class:`~repro.congest.network.Network` re-checks a configurable set of
invariants after every executed round, over exactly the nodes touched
that round, and raises :class:`InvariantViolation` -- naming the node,
the round, and the invariant -- the moment one breaks.

Built-in invariants:

* :class:`DistanceMonotonicity` -- a node's best distance estimate per
  source never *increases* (relaxation algorithms only improve).
* :class:`DistanceLowerBound` -- no estimate ever drops *below* the true
  distance (an oracle-backed check: undershoot is exactly what
  distance-lowering payload corruption produces, and what monotonicity
  alone cannot see).
* :class:`PipelineScheduleInvariant` -- the paper's Invariant 1 via its
  operational consequence (DESIGN.md sec. 6): list positions and keys
  schedule at most one future send per round, so Algorithm 1's
  one-message-per-round CONGEST discipline is self-enforcing.
* :class:`PipelineBudgetInvariant` -- the paper's Invariant 2: at most
  ``floor(sqrt(Delta h / k)) + 1`` entries per source on any list.

The extractors understand the repo's program shapes (Bellman-Ford's
scalar ``d``, short-range's ``(d, l)``, the k-source dict, Algorithm 1's
``best`` map) and look through :class:`~repro.faults.resilient.ResilientProgram`
wrappers; unknown programs are skipped, so a monitor can be attached to
any network without opt-in from the program.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

INF = float("inf")


class InvariantViolation(AssertionError):
    """An invariant broke: carries the invariant name, node, and round.

    Inherits :class:`AssertionError` because a violation means the
    execution's correctness argument is void -- tests treat it exactly
    like a failed assert, and the network attaches a post-mortem before
    it propagates (``violation.post_mortem``).
    """

    def __init__(self, invariant: str, node: int, round_: int,
                 detail: str) -> None:
        self.invariant = invariant
        self.node = node
        self.round = round_
        self.detail = detail
        self.post_mortem = None  # filled by Network before propagating
        super().__init__(
            f"invariant {invariant!r} violated at node {node}, "
            f"round {round_}: {detail}")


def _unwrap(program: Any) -> Any:
    """Look through ResilientProgram-style wrappers (duck-typed)."""
    while hasattr(program, "inner"):
        program = program.inner
    return program


def distance_map(program: Any) -> Optional[Dict[Any, float]]:
    """Best-known distance per source for any recognised program shape;
    ``None`` when the program exposes no distance state."""
    program = _unwrap(program)
    best = getattr(program, "best", None)
    if isinstance(best, dict):  # Algorithm 1: {source: SourceBest}
        return {x: b.d for x, b in best.items()}
    d = getattr(program, "d", None)
    if isinstance(d, dict):     # k-source short-range: {source: d}
        return dict(d)
    if isinstance(d, (int, float)):  # Bellman-Ford / short-range scalar
        return {getattr(program, "source", None): d}
    return None


class Invariant:
    """One checkable per-node property; subclasses override :meth:`check`."""

    name = "invariant"

    def check(self, program: Any, ctx: Any, r: int) -> Optional[str]:
        """Return a violation description, or ``None`` when satisfied."""
        raise NotImplementedError


class DistanceMonotonicity(Invariant):
    """Per-node distance estimates never increase round over round."""

    name = "distance-monotonicity"

    def __init__(self) -> None:
        self._last: Dict[int, Dict[Any, float]] = {}

    def check(self, program: Any, ctx: Any, r: int) -> Optional[str]:
        now = distance_map(program)
        if now is None:
            return None
        prev = self._last.get(ctx.node)
        self._last[ctx.node] = now
        if prev is None:
            return None
        for x, d in now.items():
            before = prev.get(x, INF)
            if d > before:
                return (f"estimate for source {x} increased from {before} "
                        f"to {d}")
        return None


class DistanceLowerBound(Invariant):
    """No estimate ever undershoots the true distance.

    ``true_dist`` maps each source to its exact distance vector (e.g.
    from :func:`repro.graphs.reference.dijkstra`); sources the oracle
    does not cover are ignored.  This is a *simulator diagnostic*, not
    part of the distributed algorithm -- the oracle lives outside the
    CONGEST model, which is precisely what lets it catch corruption the
    nodes themselves cannot detect.
    """

    name = "distance-lower-bound"

    def __init__(self, true_dist: Dict[Any, Sequence[float]]) -> None:
        self.true_dist = true_dist

    def check(self, program: Any, ctx: Any, r: int) -> Optional[str]:
        now = distance_map(program)
        if now is None:
            return None
        for x, d in now.items():
            oracle = self.true_dist.get(x)
            if oracle is None:
                continue
            true = oracle[ctx.node]
            if d < true - 1e-9:
                return (f"estimate {d} for source {x} undershoots the true "
                        f"distance {true} (corrupted or mis-relaxed payload)")
        return None


class PipelineScheduleInvariant(Invariant):
    """Invariant 1, operationally: at most one list entry may fire per
    future round (``ceil(kappa + pos)`` is injective over the list)."""

    name = "pipeline-invariant-1"

    def check(self, program: Any, ctx: Any, r: int) -> Optional[str]:
        program = _unwrap(program)
        list_v = getattr(program, "list_v", None)
        if list_v is None:
            return None
        seen: Dict[int, Any] = {}
        pos = 0
        for e in list_v:
            pos += 1
            rr = math.ceil(e[0] + pos)
            if rr <= r:
                continue  # already fired (or suppressed by the cutoff)
            if rr in seen:
                return (f"two entries scheduled for round {rr}: "
                        f"{seen[rr]!r} and {e!r}")
            seen[rr] = e
        return None


class PipelineBudgetInvariant(Invariant):
    """Invariant 2: per-source entry count stays within the budget
    ``floor(sqrt(Delta h / k)) + 1`` (``program.budget``)."""

    name = "pipeline-invariant-2"

    def check(self, program: Any, ctx: Any, r: int) -> Optional[str]:
        program = _unwrap(program)
        list_v = getattr(program, "list_v", None)
        budget = getattr(program, "budget", None)
        if list_v is None or budget is None:
            return None
        # One len per source on the kernel NodeList (its per-source
        # lists), not a recount of the whole list per touched node per
        # round.  Note this makes the check trust the kernel's own
        # bookkeeping -- REPRO_PARANOID=1 restores an independent recount
        # inside max_entries_any_source.
        worst = list_v.max_entries_any_source()
        if worst > budget:
            return (f"{worst} entries for one source exceed the "
                    f"Invariant 2 budget {budget}")
        return None


class InvariantMonitor:
    """Checks a set of invariants after every executed round.

    Pass an instance as ``Network(..., monitor=...)``; the network calls
    :meth:`after_round` with the set of nodes that sent or received that
    round (untouched nodes cannot have changed state).  ``every=n``
    checks only every n-th executed round -- a cost dial for large runs.
    """

    def __init__(self, invariants: Optional[Iterable[Invariant]] = None,
                 *, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"'every' must be >= 1, got {every}")
        self.invariants: List[Invariant] = (
            list(invariants) if invariants is not None
            else [DistanceMonotonicity()])
        self.every = every
        self.rounds_checked = 0
        self._calls = 0

    def after_round(self, network: Any, r: int,
                    touched: Iterable[int]) -> None:
        self._calls += 1
        if (self._calls - 1) % self.every:
            return
        for v in sorted(touched):
            program, ctx = network.programs[v], network.contexts[v]
            for inv in self.invariants:
                detail = inv.check(program, ctx, r)
                if detail is not None:
                    raise InvariantViolation(inv.name, v, r, detail)
        self.rounds_checked += 1


def pipelined_invariants() -> List[Invariant]:
    """The paper's two pipelining invariants plus distance monotonicity
    -- the default check set for Algorithm 1 runs."""
    return [PipelineScheduleInvariant(), PipelineBudgetInvariant(),
            DistanceMonotonicity()]


def oracle_monitor(graph: Any, sources: Sequence[int], *,
                   extra: Optional[Iterable[Invariant]] = None,
                   every: int = 1) -> InvariantMonitor:
    """An :class:`InvariantMonitor` armed with the sequential oracle:
    monotonicity plus :class:`DistanceLowerBound` over *sources* --
    the configuration that demonstrably catches distance-lowering
    payload corruption (tests/test_monitor.py)."""
    from ..graphs.reference import dijkstra

    true_dist = {s: dijkstra(graph, s)[0] for s in sources}
    invariants: List[Invariant] = [DistanceMonotonicity(),
                                   DistanceLowerBound(true_dist)]
    if extra is not None:
        invariants.extend(extra)
    return InvariantMonitor(invariants, every=every)
