"""Per-layer timing from outside the program.

:func:`installed` wraps a fixed list of the program's public callables
(graph generation, save and load, the APSP/k-SSP entry points, the
routing-table constructor, the oracle's build/query/refresh, the churn
driver's ``apply`` and the async front-end's ``serve``/``refresh``) so
that each call records a span into a :class:`Tracer`, and restores every
original on exit.  No file of the program is edited.  While the tracer
is paused (the benchmark making inputs or checking answers) calls are
not recorded.

Spans nest per thread.  A span opened on a worker thread with nothing
open on that thread is parented to the innermost open non-idle span of
the main thread -- the front-end call that handed the work to the pool.
A span's *self time* is its duration minus the union of its children's
intervals; ``idle`` spans (the open-loop generator sleeping) only count
where no other child is running.  Summing self times over the tree gives
the traced wall time exactly, unless sibling spans overlap (double
counting) or time passes outside every span (missing coverage); the
parts-sum check in :func:`parts` reports both as ``MISMATCH``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Largest share of the traced wall time the parts may miss or
#: double-count before the cross-check prints MISMATCH.
PARTS_TOLERANCE = 0.03

ROOT = -1


@dataclass
class Span:
    name: str
    start: float
    parent: int
    idle: bool = False
    end: float = 0.0
    #: Items handled by the call (queries in a batch), when known.
    size: int = 0


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    #: Counts recorded at span boundaries (messages, repair rounds, ...).
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Seconds of the traced interval spent paused (input making and
    #: answer checks); they count as neither wall time nor a part.
    excluded: float = 0.0
    #: Nesting depth of pauses; nothing is recorded while positive.
    paused: int = 0

    def __post_init__(self) -> None:
        self._main = threading.get_ident()
        self._stacks: Dict[int, List[int]] = {}
        self._lock = threading.Lock()

    def begin(self, name: str, *, idle: bool = False) -> int:
        if self.paused:
            return ROOT
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            parent = ROOT
            if stack:
                parent = stack[-1]
            elif tid != self._main:
                for i in reversed(self._stacks.get(self._main, ())):
                    if not self.spans[i].idle:
                        parent = i
                        break
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent, idle))
            stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if idx == ROOT:
            return
        t = time.perf_counter()
        with self._lock:
            self.spans[idx].end = t
            self._stacks[threading.get_ident()].remove(idx)

    @contextlib.contextmanager
    def span(self, name: str, *, idle: bool = False) -> Iterator[int]:
        idx = self.begin(name, idle=idle)
        try:
            yield idx
        finally:
            self.end(idx)

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


# ---------------------------------------------------------------------------
# wrappers


def _count_solve(tracer: Tracer, span: Span, args: Tuple, out: Any) -> None:
    tracer.counts["congest.messages"] += out.metrics.messages


def _count_batch(tracer: Tracer, span: Span, args: Tuple, out: Any) -> None:
    span.size = len(args[1])


def _count_repair(tracer: Tracer, span: Span, args: Tuple, out: Any) -> None:
    tracer.counts["recovery.affected"] += len(out.affected)
    tracer.counts["recovery.sources"] += len(args[0].sources)
    tracer.counts["recovery.repair_rounds"] += out.rounds_to_repair


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    from repro.core import api, routing
    from repro.graphs import generators
    from repro.graphs import io as gio
    from repro.recovery import dynamic
    from repro.serve import frontend, oracle

    return [
        (generators, "random_graph", "graphs.gen", None),
        (gio, "save", "graphs.save", None),
        (gio, "load", "graphs.load", None),
        (api, "apsp", "core.apsp", _count_solve),
        (api, "k_ssp", "core.kssp", _count_solve),
        (routing.RoutingTable, "__init__", "serve.table_wrap", None),
        (oracle.DistanceOracle, "__init__", "serve.build", None),
        (oracle.DistanceOracle, "query_batch", "serve.query_batch",
         _count_batch),
        (oracle.DistanceOracle, "refresh", "serve.refresh", None),
        (dynamic.DynamicRun, "apply", "recovery.apply", _count_repair),
        (frontend.AsyncFrontend, "serve", "frontend.serve", None),
        (frontend.AsyncFrontend, "refresh", "frontend.refresh", None),
    ]


def _wrap(tracer: Tracer, name: str, fn: Callable,
          on_result: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            idx = tracer.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None and idx != ROOT:
            on_result(tracer, tracer.spans[idx], args, out)
        return out
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target callable for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, on_result in _targets():
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tracer, name, orig, on_result))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# self times and the parts-sum cross-check


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(tracer: Tracer, t0: float, t1: float) -> Dict[str, float]:
    """Self time per span name over the traced interval ``[t0, t1]``.

    ``bench.idle`` collects generator sleep not covered by other work and
    ``bench.unattributed`` the time outside every top-level span.
    """
    spans = tracer.spans
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s.parent].append(i)
    out: Dict[str, float] = defaultdict(float)
    nodes = [(ROOT, "bench.unattributed", t0, t1)]
    nodes += [(i, s.name, s.start, s.end) for i, s in enumerate(spans)
              if not s.idle]
    for i, name, lo, hi in nodes:
        busy, idle = [], []
        for c in kids.get(i, ()):
            cs = spans[c]
            iv = (max(lo, cs.start), min(hi, cs.end))
            if iv[1] > iv[0]:
                (idle if cs.idle else busy).append(iv)
        covered_busy = _union(busy)
        covered_all = _union(busy + idle)
        out[name] += (hi - lo) - covered_all
        out["bench.idle"] += covered_all - covered_busy
    out["bench.unattributed"] -= tracer.excluded
    return dict(out)


def busy_time(tracer: Tracer, name: str) -> float:
    """Inclusive duration summed over the spans called *name*."""
    return sum(s.end - s.start for s in tracer.spans_named(name))


def parts(selfs: Dict[str, float], kernel_s: float, wall: float
          ) -> Tuple[Dict[str, float], float, bool]:
    """The layer parts of the traced wall time.

    The core spans' self time is split into the kernel's round loop
    (``perf.kernel``, from the ProfileSession) and the rest
    (``perf.envelope``).  Returns ``(parts, parts_sum / wall, match)``.
    """
    layer = {k: v for k, v in selfs.items() if k != "bench.unattributed"}
    core = layer.pop("core.apsp", 0.0) + layer.pop("core.kssp", 0.0)
    layer["perf.kernel"] = kernel_s
    layer["perf.envelope"] = core - kernel_s
    frac = sum(layer.values()) / wall if wall > 0 else 0.0
    return layer, frac, abs(frac - 1.0) <= PARTS_TOLERANCE
