#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the program from ``src/`` of
the same checkout.  It prints a readable report, then as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

A traced run executes the workload twice on the same inputs, each with
half the seconds: once plain (the reference for ``trace.overhead_frac``)
and once with the layer wrappers of :mod:`perfbench.tracing` installed.

Exit status: 0 when the run finished (the JSON says whether its answers
were correct), 2 when the checkout has no program sources or the
arguments are invalid, 1 on any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Environment switches that change which engine runs; removed before the
#: program is imported so every run measures the same code path.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_COLUMNAR_NUMPY", "REPRO_PARANOID")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def pin_environment() -> List[str]:
    """Drop engine-selecting variables and keep native libraries on one
    thread (the process then has two: event loop and one pool worker).
    Returns the names that were removed."""
    removed = [k for k in PINNED_ENV if os.environ.pop(k, None) is not None]
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[k] = "1"
    return removed


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    program imported is the one in it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, "
                         f"not from {src}")


def declared() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)``: metric name -> unit, from
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# measuring


def _pass(name: str, run, tracer=None) -> Tuple[float, float, float, int]:
    """Execute *run* inside a ProfileSession (the kernel's round timer),
    with the layer wrappers when *tracer* is given.  Returns
    ``(t0, t1, kernel_s, kernel_rounds)``."""
    from repro.obs import ProfileSession

    from perfbench import tracing, workloads
    with ProfileSession() as prof:
        run.profile = prof
        if tracer is None:
            t0, t1 = workloads.execute(name, run)
        else:
            with tracing.installed(tracer):
                t0, t1 = workloads.execute(name, run)
    stat = prof.timers.get(workloads.KERNEL_TIMER)
    return (t0, t1, stat.total if stat else 0.0, stat.count if stat else 0)


def _slowdown(run) -> float:
    """The host's median calibration time over the reference host's."""
    from perfbench import workloads
    return (statistics.median(secs for _, secs in run.calib)
            / workloads.CALIB_REF_S)


def _queue_waits(submitted: Sequence[float],
                 batches: Sequence[Tuple[float, int]]) -> List[float]:
    """Submit -> query_batch start per point query.  The front-end takes
    pending queries first-in first-out, so the k-th batch holds the next
    ``size`` queries in submission order."""
    order = sorted(submitted)
    waits: List[float] = []
    for start, size in sorted(batches):
        for t in order[len(waits):len(waits) + size]:
            waits.append(start - t)
    return waits


def layer_metrics(run, tracer, t0: float, t1: float, kernel_s: float,
                  kernel_rounds: int, plain_wall: float
                  ) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of a traced pass plus report lines."""
    from perfbench import tracing
    wall = (t1 - t0) - run.excluded
    tracer.excluded = run.excluded
    selfs = tracing.self_times(tracer, t0, t1)
    parts, parts_frac, match = tracing.parts(selfs, kernel_s, wall)

    def busy(name: str) -> float:
        return tracing.busy_time(tracer, name)

    def frac(x: float) -> float:
        return x / wall if wall > 0 else 0.0

    spans = tracer.spans
    point_ids = {i for i, s in enumerate(spans) if s.name == "frontend.point"}
    batches = [s for s in spans if s.name == "serve.query_batch"]
    point_batches = [(s.start, s.size) for s in batches
                     if s.parent in point_ids]
    waits = _queue_waits(run.obs.get("point_submitted", ()), point_batches)
    latency = run.obs.get("point_latency", ())
    late = run.obs.get("point_late", ())
    total_latency = sum(latency)
    cache = run.obs.get("cache", {})
    counts = tracer.counts
    core = busy("core.apsp") + busy("core.kssp")
    values = {
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / plain_wall - 1.0,
        "trace.parts_frac": parts_frac,
        "graphs.load_s": busy("graphs.load"),
        "core.solve_s": core,
        "core.apsp_calls": len(tracer.spans_named("core.apsp")),
        "core.kssp_calls": len(tracer.spans_named("core.kssp")),
        "perf.kernel_s": kernel_s,
        "perf.kernel_rounds": kernel_rounds,
        "perf.envelope_s": core - kernel_s,
        "congest.messages": int(counts["congest.messages"]),
        "serve.table_wrap_frac": frac(busy("serve.table_wrap")),
        "serve.query_batch_frac": frac(busy("serve.query_batch")),
        "serve.query_batch_calls": len(batches),
        "serve.batch_size_mean": statistics.fmean(
            [s.size for s in batches]) if batches else 0.0,
        "serve.cache.hit_rate": cache.get("hit_rate", 0.0),
        "serve.cache.evictions": cache.get("evictions", 0),
        "serve.cache.invalidations": cache.get("invalidations", 0),
        "serve.refresh_frac": frac(busy("serve.refresh")),
        "serve.swap_frac": frac(busy("serve.refresh")
                                - busy("recovery.apply")),
        "recovery.apply_frac": frac(busy("recovery.apply")),
        "recovery.affected_frac": (
            counts["recovery.affected"] / counts["recovery.sources"]
            if counts["recovery.sources"] else 0.0),
        "recovery.repair_rounds": int(counts["recovery.repair_rounds"]),
        "frontend.self_frac": frac(sum(selfs.get(k, 0.0) for k in (
            "frontend.serve", "frontend.refresh", "frontend.point"))),
        "frontend.coalesce_mean": statistics.fmean(
            [size for _, size in point_batches]) if point_batches else 0.0,
        "frontend.queue_wait_frac": (sum(waits) / total_latency
                                     if total_latency else 0.0),
        "frontend.gen_late_frac": (sum(late) / total_latency
                                   if total_latency else 0.0),
        "bench.idle_frac": frac(selfs.get("bench.idle", 0.0)),
    }
    lines = [f"part {name:<22} {secs:12.6f} s  {frac(secs):7.2%}"
             for name, secs in sorted(parts.items(), key=lambda kv: -kv[1])]
    lines.append(f"part {'(outside every span)':<22} "
                 f"{selfs.get('bench.unattributed', 0.0):12.6f} s")
    lines.append(f"parts-sum {parts_frac:.4f} of traced wall "
                 f"{wall:.6f} s -> {'MATCH' if match else 'MISMATCH'}")
    if waits:
        lines.append(f"detail frontend.queue_wait_p50_ms = "
                     f"{statistics.median(waits) * 1e3:.6f} ms")
        lines.append(f"detail frontend.queue_wait_p99_ms = "
                     f"{sorted(waits)[int(0.99 * len(waits))] * 1e3:.6f} ms")
    return values, lines


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes=None, removed: Sequence[str] = ()) -> Dict[str, Any]:
    """Run one workload and return its report: ``result`` (the JSON
    object) and ``lines`` (the readable report)."""
    from perfbench import tracing, workloads
    sizes = sizes or workloads.FULL
    end_to_end, per_layer = declared()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if not trace:
            run = workloads.Run(seed, seconds, sizes, workdir)
            t0, t1, kernel_s, kernel_rounds = _pass(name, run)
            values = dict(run.metrics)
            lines: List[str] = []
            wanted = end_to_end
        else:
            once = dataclasses.replace(sizes, build_repeats=1)
            plain = workloads.Run(seed, seconds / 2, once, workdir)
            p0, p1, _, _ = _pass(name, plain)
            tracer = tracing.Tracer()
            run = workloads.Run(seed, seconds / 2, once, workdir,
                                tracer=tracer)
            t0, t1, kernel_s, kernel_rounds = _pass(name, run, tracer)
            # The plain pass's wall time at the traced pass's host speed.
            plain_wall = (((p1 - p0) - plain.excluded)
                          * _slowdown(run) / _slowdown(plain))
            values, lines = layer_metrics(
                run, tracer, t0, t1, kernel_s, kernel_rounds, plain_wall)
            run.attempted += plain.attempted
            run.failed += plain.failed
            run.fallbacks[:0] = plain.fallbacks
            wanted = per_layer
    if set(values) != set(wanted):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(wanted)}")
    for k, v in values.items():
        if not math.isfinite(v):
            raise RuntimeError(f"metric {k} is not finite: {v}")
    import numpy
    from repro.perf import columnar
    head = [
        f"perfbench workload={name} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)}",
        f"env python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} numpy_enabled={columnar.numpy_enabled()} "
        f"perf.kernel_rounds={kernel_rounds} "
        f"removed_env={','.join(removed) or '-'}",
    ]
    if kernel_rounds == 0 or run.fallbacks:
        head.append(f"FALLBACK: {len(run.fallbacks)} solves, builds and "
                    "repairs ran no round of the columnar pipelined kernel "
                    "and took the slower engine")
        head += [f"FALLBACK {what}" for what in run.fallbacks]
    head += [f"metric {k} = {v!r} {wanted[k]}" for k, v in values.items()]
    head += [f"detail {k} = {v!r} {unit}"
             for k, (v, unit) in run.details.items()]
    head.append(f"detail host_slowdown = {_slowdown(run)!r} x "
                f"({len(run.calib)} calibrations; end-to-end times are "
                "scaled to the reference host)")
    return {
        "lines": head + lines,
        "result": {"correct": run.failed == 0, "attempted": run.attempted,
                   "failed": run.failed,
                   "metrics": {k: {"value": v, "unit": wanted[k]}
                               for k, v in values.items()}},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    removed = pin_environment()
    try:
        import_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), removed=removed)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
