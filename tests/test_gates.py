"""The CI gate table (benchmarks/gates.py) on synthetic rows.

Pins that every floor is the value CI enforced when each gate was its
own script, and that each check looks at the rows it claims to: the
largest-``n`` row of the matching family for a floor, the summed
single-edge rows for E21, every refresh row for E22.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import ExperimentReport

GATES_PY = Path(__file__).parent.parent / "benchmarks" / "gates.py"


def _load_gates():
    spec = importlib.util.spec_from_file_location("gates", GATES_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gates = _load_gates()

#: (record name, params of the floored row family, floor) as the
#: separate gate scripts enforced them in CI.
OLD_CI_FLOORS = [
    ("backend_speedup", {"hooks": "none"}, 2.0),
    ("backend_speedup", {"hooks": "full"}, 1.5),
    ("serving", {"row": "serve"}, 5.0),
    ("columnar", {}, 2.0),
    ("columnar_pipelined", {}, 2.0),
]


def _speedup_report(name, match, measured):
    """Rows for every floored family of *name*: the family *match* has
    its largest row at *measured*, below it one row far under and one
    far over any floor; every other family sits comfortably above its
    floor.  A serving report also carries a non-floored ``row=build``
    family whose largest row is far under, and a refresh row."""
    rep = ExperimentReport("EX", "synthetic")
    for fname, fmatch, minimum in OLD_CI_FLOORS:
        if fname != name:
            continue
        top = measured if fmatch == match else minimum + 10
        rep.add({**fmatch, "n": 10}, measured=0.5)
        rep.add({**fmatch, "n": 20}, measured=minimum + 10)
        rep.add({**fmatch, "n": 100}, measured=top)
    if name == "serving":
        rep.add({"row": "build", "n": 1000}, measured=0.1)
        rep.add({"row": "refresh", "n": 100}, measured=7, affected=2)
    return rep


@pytest.mark.parametrize(
    "name, match, minimum", OLD_CI_FLOORS,
    ids=["-".join([name, *match.values()]) for name, match, _ in OLD_CI_FLOORS])
def test_floor_is_the_old_ci_value(name, match, minimum):
    checks = gates.GATES[name][2]
    assert gates.failures(checks, _speedup_report(name, match, minimum)) == []
    below = _speedup_report(name, match, round(minimum - 0.01, 2))
    assert len(gates.failures(checks, below)) == 1


def test_every_gate_is_pinned():
    floored = {name for name, _, _ in OLD_CI_FLOORS}
    assert set(gates.GATES) == floored | {"recovery"}
    assert {name: exp for name, (exp, _, _) in gates.GATES.items()} == {
        "backend_speedup": "E19", "recovery": "E21", "serving": "E22",
        "columnar": "E23", "columnar_pipelined": "E24"}


def _recovery_report(repair, full):
    rep = ExperimentReport("E21", "synthetic")
    rep.add({"update": "increase", "n": 10}, measured=repair, bound=full)
    rep.add({"update": "decrease", "n": 10}, measured=repair, bound=full)
    rep.add({"update": "crash", "n": 10}, measured=0)
    return rep


def test_recovery_needs_repairs_strictly_cheaper():
    checks = gates.GATES["recovery"][2]
    assert gates.failures(checks, _recovery_report(4, 5)) == []
    assert len(gates.failures(checks, _recovery_report(5, 5))) == 1


def test_serving_fails_on_a_refresh_that_affects_nothing():
    checks = gates.GATES["serving"][2]
    rep = _speedup_report("serving", {"row": "serve"}, 5.0)
    assert gates.failures(checks, rep) == []
    rep.add({"row": "refresh", "n": 200}, measured=0, affected=0)
    assert len(gates.failures(checks, rep)) == 1
