"""The CI gates over the wall-clock and recovery experiments (E19, E21-E24).

Run:  PYTHONPATH=src python benchmarks/gates.py

:data:`GATES` is the one table of CI floors: record name -> (experiment
id, sweep kwargs, checks).  For each gate the script runs the sweep
through :func:`repro.perf.run_experiment`, prints its table, saves it
as ``benchmarks/BENCH_<name>.json`` (gitignored; CI uploads it as an
artifact) and prints ``OK <name>`` or ``FAIL <name>: <why>``.  It keeps
going after a failure and exits 1 if any gate failed.

A check takes the sweep's report and returns ``None`` on a pass or the
reason it failed.  Correctness the sweeps assert themselves (batched
answers, table digests, Dijkstra checks, cross-backend digests) needs
no check here: a sweep that raises fails its gate.

The gates run fresh every time instead of through the campaign cache:
that cache is keyed on the sweep's source digest, so a reused store
would answer a timing gate with an old speedup after any kernel edit.
"""

import traceback
from pathlib import Path

from repro.analysis import render_report
from repro.obs import BenchStore
from repro.perf import run_experiment


def floor(minimum, **match):
    """Check: the largest-``n`` row whose params include *match*
    measures at least *minimum*."""
    where = "".join(f" {k}={v}" for k, v in match.items())

    def check(rep):
        rows = [m for m in rep.rows
                if all(m.params.get(k) == v for k, v in match.items())]
        largest = max(rows, key=lambda m: m.params["n"])
        if largest.measured < minimum:
            return (f"{largest.measured}x at n={largest.params['n']}"
                    f"{where} is below the {minimum}x floor")
        return None
    return check


def repairs_cheaper(rep):
    """Check (E21): the single-edge repairs cost fewer rounds in total
    than recomputing from scratch."""
    rows = [m for m in rep.rows
            if m.params["update"] in ("increase", "decrease")]
    repair = sum(m.measured for m in rows)
    full = sum(m.bound for m in rows)
    if repair >= full:
        return (f"{len(rows)} single-edge repairs cost {repair} rounds vs "
                f"{full} from scratch")
    return None


def refreshes_affect_sources(rep):
    """Check (E22): every refresh row touched at least one source; a
    refresh that affects nothing gates nothing."""
    idle = [m.params["n"] for m in rep.rows
            if m.params["row"] == "refresh" and m.extra["affected"] <= 0]
    if idle:
        return f"refresh rows at n={idle} affected no sources"
    return None


GATES = {
    "backend_speedup": (
        "E19", {"sizes": (768, 1536), "repeats": 3},
        (floor(2.0, hooks="none"), floor(1.5, hooks="full"))),
    "recovery": (
        "E21", {"seeds": (0, 1), "sizes": (10, 14)},
        (repairs_cheaper,)),
    "serving": (
        "E22", {"sizes": ((64, 0.08, 12000), (96, 0.05, 12000)),
                "repeats": 3},
        (floor(5.0, row="serve"), refreshes_affect_sources)),
    "columnar": (
        "E23", {"sides": (30, 60, 100), "repeats": 3},
        (floor(2.0),)),
    "columnar_pipelined": (
        "E24", {"sizes": ((128, 0.10, 16, 12), (192, 0.08, 24, 14),
                          (256, 0.07, 32, 16)), "repeats": 3},
        (floor(2.0),)),
}


def failures(checks, rep):
    """The reasons *rep* fails *checks* (empty: it passes)."""
    return [why for why in (check(rep) for check in checks) if why]


def main() -> int:
    store = BenchStore(Path(__file__).parent)
    failed = 0
    for name, (experiment, kwargs, checks) in GATES.items():
        try:
            (rep,) = run_experiment(experiment, **kwargs)
        except Exception as exc:
            traceback.print_exc()
            why = [f"{experiment} sweep raised {type(exc).__name__}: {exc}"]
        else:
            print(render_report(rep))
            print(f"\nwrote {store.save(name, [rep])}")
            why = failures(checks, rep)
        if why:
            failed += 1
            print(f"FAIL {name}: {'; '.join(why)}\n", flush=True)
        else:
            print(f"OK {name}\n", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
