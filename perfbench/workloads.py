"""The three workloads.

Every workload calls the public API with ``method="pipelined"`` and
``backend="columnar"`` (the paper's Algorithm 1 on the production
engine), makes all of its inputs from the seed, and checks every answer
against Dijkstra (:mod:`perfbench.verify`).  The amount of work is fixed
by ``--seconds`` through nominal per-unit costs measured on a 2-vCPU x86
machine, so a run does the same work on every commit and a faster
program simply finishes sooner.

Times are reported on the reference host's clock.  A shared host's
speed drifts by up to 2x within a minute, so every timed sample is
bracketed by calibrations -- a fixed pure-Python Dijkstra table, which
is benchmark code and the same on every commit -- and scaled by
``CALIB_REF_S`` over their mean (:meth:`Run.scaled`).
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import functools
import gc
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .tracing import Tracer
from .verify import Arcs, Checker, dijkstra_table, wrong_rows

METHOD = "pipelined"
BACKEND = "columnar"


#: Settings that are the same at every size.
W_MAX = 10
#: apsp_pipelined: set-up samples (graph generations) after each solve.
GEN_PER_SOLVE = 2
#: serve_zipf: shares of the run for the stream and open-loop phases.
STREAM_SHARE = 0.4
POINT_SHARE = 0.45
#: Zipf skews of the serve_zipf and serve_churn query streams.
ZIPF_SKEW = 1.2
CHURN_SKEW = 0.6
#: serve_churn: an update raises one arc's weight by 1 to BUMP_MAX.
BUMP_MAX = 20
#: The ProfileSession timer of the columnar pipelined kernel's rounds.
KERNEL_TIMER = "columnar.pipelined.round"
#: Nodes of the calibration graph, and the seconds one calibration takes
#: on the reference host (a quiet 2-vCPU x86 VM).
CALIB_N = 128
CALIB_REF_S = 0.020


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the nominal costs that turn seconds into work."""

    n: int = 128
    p: float = 0.05
    #: Graphs are drawn from the seed until one has an arc count and a
    #: weighted diameter in these bands (None: the first draw), so the
    #: seed changes the graph but not how hard it is.
    arcs_band: Optional[Tuple[int, int]] = (1035, 1070)
    diameter_band: Optional[Tuple[int, int]] = (20, 21)
    #: apsp_pipelined: distinct graphs per run, nominal seconds per solve.
    graphs: int = 3
    solve_s: float = 2.2
    #: serve_*: timed oracle builds per run (median reported).
    build_repeats: int = 3
    #: Query streams per serving run, each with its own popularity order.
    streams: int = 4
    #: serve_zipf: queries per stream, nominal seconds per stream pass,
    #: open-loop arrivals per second.
    stream_len: int = 100_000
    pass_s: float = 0.085
    point_rate: float = 20_000.0
    #: serve_churn: queries per stream and per read phase, nominal seconds
    #: per read+refresh cycle, how many sources an update should affect.
    churn_len: int = 120_000
    window: int = 40_000
    cycle_s: float = 0.45
    band: Tuple[int, int] = (5, 8)


FULL = Sizes()
TINY = Sizes(n=16, p=0.2, arcs_band=None, diameter_band=None, graphs=2,
             solve_s=0.05, build_repeats=2, streams=2,
             stream_len=1_000, pass_s=0.05, point_rate=2_000.0,
             churn_len=1_000, window=500, cycle_s=0.1, band=(1, 4))


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit seed derived from the run seed and a purpose tag."""
    return random.Random(f"perfbench:{seed}:{tag}").getrandbits(32)


@functools.lru_cache(maxsize=1)
def _calib_arcs() -> Arcs:
    """The calibration graph: fixed, whatever the seed."""
    rng = random.Random("perfbench:calibration")
    return {(u, v): rng.randint(1, W_MAX) for u in range(CALIB_N)
            for v in range(CALIB_N) if u != v and rng.random() < 0.05}


@dataclass
class Run:
    """One execution of a workload: settings in, observations out."""

    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    tracer: Optional[Tracer] = None
    #: The active ProfileSession (its kernel timer is read per call).
    profile: Any = None
    attempted: int = 0
    failed: int = 0
    #: Seconds spent in :meth:`untimed` blocks (input making, checks).
    excluded: float = 0.0
    #: End-to-end values, by metric name.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Further measurements printed for the reader (name -> (value, unit)).
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Raw observations the traced run turns into layer metrics.
    obs: Dict[str, Any] = field(default_factory=dict)
    #: Solves, builds and repairs that ran no round of the kernel.
    fallbacks: List[str] = field(default_factory=list)
    #: Calibrations: (start, seconds), in time order.
    calib: List[Tuple[float, float]] = field(default_factory=list)

    @contextlib.contextmanager
    def untimed(self) -> Iterator[None]:
        """Benchmark-side work that is neither measured nor traced."""
        t = time.perf_counter()
        if self.tracer is not None:
            self.tracer.paused += 1
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused -= 1
            self.excluded += time.perf_counter() - t

    def calibrate(self) -> None:
        """Probe the host's current speed: time the calibration table."""
        with self.untimed():
            t = time.perf_counter()
            dijkstra_table(CALIB_N, _calib_arcs())
            self.calib.append((t, time.perf_counter() - t))

    def host_factor(self, t: float) -> float:
        """``CALIB_REF_S`` over the mean of the calibrations just before
        and just after time *t*."""
        i = bisect.bisect([start for start, _ in self.calib], t)
        near = [secs for _, secs in self.calib[max(0, i - 1):i + 1]]
        return CALIB_REF_S / statistics.fmean(near)

    def scaled(self, samples: Sequence[Tuple[float, float]]) -> List[float]:
        """``(start, seconds)`` samples as seconds on the reference host."""
        return [secs * self.host_factor(t) for t, secs in samples]

    def span(self, name: str, *, idle: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, idle=idle)

    def fail(self, what: str, exc: BaseException, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED {what}: {exc!r}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    def check(self, wrong: int) -> None:
        self.failed += wrong

    def kernel_rounds(self) -> int:
        """Rounds of the columnar pipelined kernel run so far."""
        stat = (self.profile.timers.get(KERNEL_TIMER)
                if self.profile is not None else None)
        return stat.count if stat else 0

    def expect_kernel(self, before: int, what: str) -> None:
        """Record *what* as a fallback when it ran no kernel round since
        :meth:`kernel_rounds` read *before*."""
        if self.kernel_rounds() == before:
            self.fallbacks.append(what)


@contextlib.contextmanager
def frozen_inputs(run: Run) -> Iterator[None]:
    """Move everything alive now (the generated inputs) out of the
    collector's view for the block, so the benchmark's own objects do not
    lengthen the program's garbage collections."""
    with run.untimed():
        gc.collect()
        gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _pct(xs: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by the nearest-rank rule."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class GraphInput:
    seed: int
    arcs: Arcs
    truth: List[List[float]]


def _generate(sizes: Sizes, seed: int):
    """``random_graph(n, p, w_max)``: the `repro gen` generator."""
    from repro.graphs import generators
    return generators.random_graph(sizes.n, p=sizes.p, w_max=W_MAX,
                                   seed=seed)


def _draw_graph(run: Run, tag: str) -> GraphInput:
    """The first graph of a seeded sequence whose arc count and weighted
    diameter lie in the :class:`Sizes` bands."""
    s = run.sizes
    rng = random.Random(sub_seed(run.seed, tag))
    for _ in range(1000):
        seed = rng.getrandbits(32)
        arcs = {(u, v): w for u, v, w in _generate(s, seed).edges()}
        if s.arcs_band and not s.arcs_band[0] <= len(arcs) <= s.arcs_band[1]:
            continue
        truth = dijkstra_table(s.n, arcs)
        diameter = max(max(row) for row in truth)
        if s.diameter_band and not (
                s.diameter_band[0] <= diameter <= s.diameter_band[1]):
            continue
        return GraphInput(seed, arcs, truth)
    raise RuntimeError(f"no graph within the size bands for {tag}")


def _queries(run: Run, tag: str, count: int, skew: float):
    """A seeded Zipf query stream (half distance, half path queries)."""
    from repro.serve import generate_workload
    return generate_workload(run.sizes.n, count, skew=skew,
                             seed=sub_seed(run.seed, tag)).queries


# ---------------------------------------------------------------------------
# apsp_pipelined


def apsp_pipelined(run: Run) -> None:
    """Load a graph file and solve APSP with Algorithm 1, repeatedly."""
    from repro.core import api
    from repro.graphs import io as gio
    s = run.sizes
    with run.untimed():
        inputs = [_draw_graph(run, f"apsp{i}") for i in range(s.graphs)]
    files = [run.workdir / f"apsp{i}.graph" for i in range(s.graphs)]
    reps = max(1, round(run.seconds / (s.graphs * s.solve_s)))
    times: List[List[Tuple[float, float]]] = [[] for _ in files]
    rounds = [0] * len(files)

    def write_files() -> Tuple[float, float]:
        """Set-up: generate and write the graph files (`repro gen`)."""
        t = time.perf_counter()
        for graph, path in zip(inputs, files):
            gio.save(_generate(s, graph.seed), path)
        return t, time.perf_counter() - t

    with frozen_inputs(run):
        run.calibrate()
        setup = [write_files()]
        for _ in range(reps):
            for i, path in enumerate(files):
                run.attempted += 1
                before = run.kernel_rounds()
                t = time.perf_counter()
                try:
                    res = api.apsp(gio.load(path), method=METHOD,
                                   backend=BACKEND)
                except Exception as exc:
                    run.fail(f"apsp solve of {path.name}", exc)
                    continue
                times[i].append((t, time.perf_counter() - t))
                run.calibrate()
                run.expect_kernel(before, f"apsp solve of {path.name}")
                rounds[i] = res.metrics.rounds
                with run.untimed():
                    run.check(1 if wrong_rows(res.dist, inputs[i].truth)
                              else 0)
                # More set-up samples, spread over the run, so that the
                # median does not rest on one moment of the host.
                setup.extend(write_files() for _ in range(GEN_PER_SOLVE))
        run.calibrate()

    scaled = [run.scaled(ts) for ts in times]
    flat = [t for ts in scaled for t in ts]
    per_graph = [_median(ts) for ts in scaled if ts]
    run.metrics.update(
        setup_s=_median(run.scaled(setup)),
        rounds=statistics.fmean(rounds),
        latency_p50_ms=_median(flat) * 1e3,
        # Distances delivered per second over the graph set, each graph
        # at its median solve time.
        answers_per_s=s.n * s.n * len(per_graph) / sum(per_graph)
        if per_graph else 0.0)
    run.details["solves"] = (len(flat), "count")
    run.details["raw_latency_p50_ms"] = (
        _median([dt for ts in times for _, dt in ts]) * 1e3, "ms")
    for i, ts in enumerate(scaled):
        run.details[f"apsp_s[graph{i}]"] = (_median(ts), "s")
        run.details[f"rounds[graph{i}]"] = (rounds[i], "rounds")


# ---------------------------------------------------------------------------
# serving: shared set-up


def _serve_input(run: Run, tag: str) -> Tuple[Path, GraphInput]:
    """Draw the graph and write its file."""
    from repro.graphs import io as gio
    graph = _draw_graph(run, tag)
    path = run.workdir / f"{tag}.graph"
    gio.save(_generate(run.sizes, graph.seed), path)
    return path, graph


def _build_oracle(run: Run, path: Path,
                  setup: List[Tuple[float, float]]):
    """Set-up: load the graph file and build the oracle over every node;
    the build's start and seconds are appended to *setup*."""
    from repro.graphs import io as gio
    from repro.serve import DistanceOracle
    before = run.kernel_rounds()
    t = time.perf_counter()
    oracle = DistanceOracle(gio.load(path), method=METHOD, backend=BACKEND)
    setup.append((t, time.perf_counter() - t))
    run.expect_kernel(before, "oracle build")
    return oracle


def _rebuild_after(steps: int, builds: int) -> List[int]:
    """The steps (of *steps*) after which one more set-up build is timed
    and thrown away.  With the build before the first step they spread
    *builds* samples evenly over the run: the host's speed drifts, and
    samples taken back to back at the start would see one moment of it.
    """
    return sorted({round(steps * j / (builds - 1)) - 1
                   for j in range(1, builds)})


def _frontend(oracle):
    from repro.serve import AsyncFrontend
    # One pool worker: with the event loop that makes two threads.
    return AsyncFrontend(oracle, max_workers=1)


async def _serve(run: Run, fe, queries: Sequence[Any], checker: Checker
                 ) -> Optional[Tuple[float, float]]:
    """One stream phase through ``AsyncFrontend.serve``; its start and
    seconds, or None when it raised."""
    run.attempted += len(queries)
    t = time.perf_counter()
    try:
        answers = await fe.serve(queries)
    except Exception as exc:
        run.fail("stream phase", exc, count=len(queries))
        return None
    dt = time.perf_counter() - t
    with run.untimed():
        run.check(checker.wrong_answers(queries, answers))
    return t, dt


# ---------------------------------------------------------------------------
# serve_zipf


async def _open_loop(run: Run, fe, queries: Sequence[Any],
                     arrivals: Sequence[float]
                     ) -> Tuple[List[Any], List[int]]:
    """Point queries sent on a fixed schedule whatever the replies do;
    each is timed from when it was due.  Returns the answers and the
    indices of the queries that raised."""
    loop = asyncio.get_running_loop()
    n = len(queries)
    latency = [0.0] * n
    late = [0.0] * n
    submitted = [0.0] * n
    answers: List[Any] = [None] * n
    failed: List[int] = []

    async def one(i: int, due: float) -> None:
        q = queries[i]
        submitted[i] = now = time.perf_counter()
        late[i] = now - due
        try:
            if q.kind == "distance":
                answers[i] = await fe.distance(q.u, q.v)
            else:
                answers[i] = await fe.path(q.u, q.v)
        except Exception as exc:
            failed.append(i)
            run.fail(f"point query {q}", exc)
        latency[i] = time.perf_counter() - due

    # Only unfinished tasks are kept: a list of every finished one would
    # make the collector's full passes grow with the phase.  ``one``
    # handles its own errors, so a finished task holds nothing to read.
    tasks: set = set()
    t0 = time.perf_counter() + 0.001
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and t0 + arrivals[i] <= now:
            task = loop.create_task(one(i, t0 + arrivals[i]))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            i += 1
        if i < n:
            wait = t0 + arrivals[i] - time.perf_counter()
            with run.span("bench.idle", idle=True):
                await asyncio.sleep(max(0.0, wait))
    await asyncio.gather(*tasks)
    for key, values in (("point_latency", latency), ("point_late", late),
                        ("point_submitted", submitted)):
        run.obs.setdefault(key, []).extend(values)
    return answers, failed


def serve_zipf(run: Run) -> None:
    """Oracle build, then rounds of one stream pass followed by one slice
    of open-loop point queries, cycling through the popularity orders so
    every metric samples the whole run."""
    s = run.sizes
    rounds = s.streams * max(1, round(STREAM_SHARE * run.seconds
                                      / (s.pass_s * s.streams)))
    per_slice = max(10, int(s.point_rate * POINT_SHARE * run.seconds
                            / rounds))
    rebuild = _rebuild_after(rounds, s.build_repeats)
    setup: List[Tuple[float, float]] = []
    with run.untimed():
        path, graph = _serve_input(run, "zipf")
        # One popularity order per stream; the point slices after that
        # stream's passes continue its draws.
        streams, slices = [], [None] * rounds
        for k in range(s.streams):
            mine = range(k, rounds, s.streams)
            qs = _queries(run, f"zipf{k}", s.stream_len
                          + per_slice * len(mine), ZIPF_SKEW)
            streams.append(qs[:s.stream_len])
            for j, r in enumerate(mine):
                lo = s.stream_len + j * per_slice
                slices[r] = qs[lo:lo + per_slice]
        rng = random.Random(sub_seed(run.seed, "zipf-arrivals"))
        arrivals, t = [], 0.0
        for _ in range(per_slice):
            arrivals.append(t)
            t += rng.expovariate(s.point_rate)
        checker = Checker(graph.truth, graph.arcs)

    #: Open-loop latencies, each with the start of its slice.
    point: List[Tuple[float, float]] = []

    async def body() -> List[List[Tuple[float, float]]]:
        """Returns the pass samples of each stream."""
        times: List[List[Tuple[float, float]]] = [[] for _ in streams]
        async with _frontend(oracle) as fe:
            for r in range(rounds):
                run.calibrate()
                k = r % len(streams)
                sample = await _serve(run, fe, streams[k], checker)
                if sample is not None:
                    times[k].append(sample)
                run.attempted += per_slice
                t = time.perf_counter()
                with run.span("frontend.point"):
                    answers, failed = await _open_loop(run, fe, slices[r],
                                                       arrivals)
                point.extend((t, lat) for lat
                             in run.obs["point_latency"][-len(slices[r]):])
                with run.untimed():
                    good = sorted(set(range(per_slice)) - set(failed))
                    run.check(checker.wrong_answers(
                        [slices[r][i] for i in good],
                        [answers[i] for i in good]))
                if r in rebuild:
                    _build_oracle(run, path, setup)
            run.calibrate()
        return times

    with frozen_inputs(run):
        run.calibrate()
        oracle = _build_oracle(run, path, setup)
        times = asyncio.run(body())
    medians = [_median(run.scaled(ts)) for ts in times if ts]
    latency = run.scaled(point)
    late = run.obs["point_late"]
    run.metrics.update(
        setup_s=_median(run.scaled(setup)),
        rounds=oracle.build_rounds,
        latency_p50_ms=_median(latency) * 1e3,
        # Queries per second over the stream set, each stream at its
        # median pass time.
        answers_per_s=s.stream_len * len(medians) / sum(medians)
        if medians else 0.0)
    run.details.update({
        "stream_passes": (rounds, "count"),
        "point_queries": (len(latency), "count"),
        "point_rate": (s.point_rate, "1/s"),
        "query_p99_ms": (_pct(latency, 0.99) * 1e3, "ms"),
        "raw_latency_p50_ms": (_median([lat for _, lat in point]) * 1e3,
                               "ms"),
        "gen_late_p50_ms": (_median(late) * 1e3, "ms"),
        "gen_late_p99_ms": (_pct(late, 0.99) * 1e3, "ms"),
        "cache_hit_rate": (oracle.cache.hit_rate, "frac"),
    })
    run.obs["cache"] = oracle.cache.stats()


# ---------------------------------------------------------------------------
# serve_churn


def _pick_update(rng: random.Random, arcs: Arcs,
                 truth: Sequence[Sequence[float]], band: Tuple[int, int],
                 bump_max: int) -> Tuple[int, int, int, int]:
    """A weight bump on an arc that lies on the shortest paths of about
    *band* sources, so refreshes repair comparable amounts of work.
    Returns ``(u, v, new_weight, sources_on_arc)``."""
    import numpy as np
    keys = sorted(arcs)
    u = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
    v = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
    w = np.fromiter((arcs[k] for k in keys), dtype=np.float64,
                    count=len(keys))
    table = np.asarray(truth, dtype=np.float64)
    du = table[:, u]
    tight = (np.isfinite(du) & (du + w == table[:, v])).sum(axis=0)
    lo, hi = band
    miss = np.maximum(lo - tight, 0) + np.maximum(tight - hi, 0)
    choices = np.flatnonzero(miss == miss.min())
    i = int(choices[rng.randrange(len(choices))])
    a, b = keys[i]
    return a, b, arcs[(a, b)] + rng.randint(1, bump_max), int(tight[i])


def serve_churn(run: Run) -> None:
    """Oracle build, then read phases alternating with refreshes."""
    from repro.recovery import EdgeUpdate
    s = run.sizes
    cycles = max(3, round(run.seconds / s.cycle_s))
    with run.untimed():
        path, graph = _serve_input(run, "churn")
        arcs = dict(graph.arcs)
        streams = [_queries(run, f"churn-stream{k}", s.churn_len, CHURN_SKEW)
                   for k in range(s.streams)]
        rng = random.Random(sub_seed(run.seed, "churn-updates"))
        checker = Checker(graph.truth, arcs)
    windows = max(1, s.churn_len // s.window)
    rebuild = _rebuild_after(cycles + 1, s.build_repeats)
    setup: List[Tuple[float, float]] = []
    refresh_times: List[Tuple[float, float]] = []
    tight_counts: List[int] = []

    def window(c: int) -> Sequence[Any]:
        """Read phase *c*: the streams take equal turns, each walking
        through its windows."""
        k = c * len(streams) // (cycles + 1)
        lo = (c % windows) * s.window
        return streams[k][lo:lo + s.window]

    async def body() -> List[Tuple[float, float]]:
        nonlocal checker
        read_times = []
        async with _frontend(oracle) as fe:
            for c in range(cycles + 1):
                run.calibrate()
                sample = await _serve(run, fe, window(c), checker)
                if sample is not None:
                    read_times.append(sample)
                if c in rebuild:
                    _build_oracle(run, path, setup)
                if c == cycles:
                    run.calibrate()
                    break
                with run.untimed():
                    a, b, w_new, tight = _pick_update(
                        rng, arcs, checker.table, s.band, BUMP_MAX)
                run.attempted += 1
                before = run.kernel_rounds()
                t = time.perf_counter()
                try:
                    rec = await fe.refresh(EdgeUpdate(a, b, w_new))
                except Exception as exc:
                    run.fail(f"refresh of arc ({a},{b})", exc)
                    break  # the served epoch is unknown from here on
                refresh_times.append((t, time.perf_counter() - t))
                if rec.affected_sources:
                    run.expect_kernel(before, f"repair of arc ({a},{b})")
                tight_counts.append(tight)
                with run.untimed():
                    arcs[(a, b)] = w_new
                    checker = Checker(dijkstra_table(s.n, arcs), arcs)
        return read_times

    with frozen_inputs(run):
        run.calibrate()
        oracle = _build_oracle(run, path, setup)
        read_times = asyncio.run(body())
    refresh = run.scaled(refresh_times)
    reads = run.scaled(read_times)
    run.metrics.update(
        setup_s=_median(run.scaled(setup)),
        rounds=oracle.build_rounds,
        latency_p50_ms=_median(refresh) * 1e3,
        answers_per_s=s.window / _median(reads) if reads else 0.0)
    run.details.update({
        "refreshes": (len(refresh), "count"),
        "refresh_total_s": (sum(refresh), "s"),
        "refresh_p90_ms": (_pct(refresh, 0.9) * 1e3, "ms"),
        "raw_latency_p50_ms": (
            _median([dt for _, dt in refresh_times]) * 1e3, "ms"),
        "sources_per_update_mean": (statistics.fmean(tight_counts)
                                    if tight_counts else 0.0, "count"),
        "read_queries": (len(read_times) * s.window, "count"),
        "cache_hit_rate": (oracle.cache.hit_rate, "frac"),
    })
    run.obs["cache"] = oracle.cache.stats()


WORKLOADS = {
    "apsp_pipelined": apsp_pipelined,
    "serve_zipf": serve_zipf,
    "serve_churn": serve_churn,
}


def execute(name: str, run: Run) -> Tuple[float, float]:
    """Run workload *name*; returns its ``(start, end)`` perf_counter
    interval (the traced interval, verification included)."""
    t0 = time.perf_counter()
    WORKLOADS[name](run)
    return t0, time.perf_counter()


__all__ = ["FULL", "KERNEL_TIMER", "TINY", "Run", "Sizes", "WORKLOADS",
           "execute", "sub_seed"]
