"""Determinism: identical inputs give bit-identical executions.

The simulator, the algorithms, and the seeded generators are all
deterministic; any nondeterminism (set iteration, dict ordering, float
context) would make round counts irreproducible and EXPERIMENTS.md
unstable.  Two independent runs must agree on everything measurable.
"""

import pytest

from differential import ENGINES, engine
from repro.perf.backends import BACKENDS

from repro.core import (
    run_approx_apsp,
    run_apsp,
    run_apsp_blocker,
    run_hk_ssp,
    run_scaling_apsp,
    run_short_range,
)
from repro.graphs import random_graph


def snapshots(res):
    m = res.metrics
    return (m.rounds, m.messages, m.words, dict(m.channel_messages),
            dict(m.node_sends))


@pytest.mark.parametrize("runner,kwargs", [
    (run_apsp, {}),
    (run_apsp_blocker, {"h": 3}),
    (run_scaling_apsp, {}),
    (lambda g: run_hk_ssp(g, [0, 3, 7], 4), {}),
    (lambda g: run_short_range(g, 2, 5), {}),
    (lambda g: run_approx_apsp(g, 1.0), {}),
])
def test_two_runs_identical(runner, kwargs):
    g1 = random_graph(12, p=0.3, w_max=6, zero_fraction=0.3, seed=21)
    g2 = random_graph(12, p=0.3, w_max=6, zero_fraction=0.3, seed=21)
    a = runner(g1, **kwargs)
    b = runner(g2, **kwargs)
    assert snapshots(a) == snapshots(b)
    assert a.dist == b.dist


def fault_digest(backend="reference"):
    """One canonical fault-injected resilient run, reduced to a digest.

    Everything measurable goes in: outputs, metrics, per-channel counts,
    fault statistics, wrapper overhead.  Any hidden dependence on hash
    ordering or process state changes the digest.
    """
    import hashlib

    from repro.core.bellman_ford import run_bellman_ford
    from repro.faults import FaultPlan

    g = random_graph(12, p=0.35, w_max=8, seed=7)
    plan = FaultPlan(seed=3, drop_rate=0.15, duplicate_rate=0.1,
                     delay_rate=0.1, corrupt_rate=0.05, max_delay=3)
    with engine(backend) as name:
        res = run_bellman_ford(g, 0, fault_plan=plan, resilient=True,
                               backend=name)
    m = res.metrics
    blob = repr((res.dist, res.parent, m.rounds, m.messages, m.words,
                 sorted(m.channel_messages.items()),
                 sorted(m.node_sends.items()),
                 m.retransmissions, m.ack_messages,
                 sorted(m.faults.items())))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fault_injected_runs_identical():
    """Same graph + same FaultPlan seed => bit-identical executions."""
    assert fault_digest() == fault_digest()


@pytest.mark.parametrize("backend", ENGINES)
def test_fault_digest_backend_independent(backend):
    """The resilient ack/retransmit run -- the E18 workload -- produces
    the identical digest on every registered backend."""
    assert fault_digest(backend) == fault_digest("reference")


def instrumented_digest(backend):
    """A fully instrumented raw-network run (fault plan + tracer + ring
    recorder), digested over the outcome, outputs, metrics, and both
    event streams."""
    import hashlib

    from differential import run_observed
    from repro.core.bellman_ford import BellmanFordProgram
    from repro.faults import FaultPlan

    g = random_graph(12, p=0.35, w_max=8, zero_fraction=0.2, seed=9)
    plan = FaultPlan(seed=4, drop_rate=0.1, duplicate_rate=0.15,
                     delay_rate=0.2, corrupt_rate=0.05, max_delay=4)
    with engine(backend) as name:
        obs = run_observed(BACKENDS[name], g,
                           lambda v: BellmanFordProgram(v, 0),
                           max_rounds=800, fault_plan=plan,
                           with_tracer=True, record_window=3)
    m = obs["metrics"]
    blob = repr((obs["outcome"], obs["outputs"],
                 {k: (sorted(v.items()) if isinstance(v, dict) else v)
                  for k, v in m.items()},
                 obs["trace"], obs["recorded"]))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("backend", ENGINES)
def test_instrumented_digest_backend_independent(backend):
    assert instrumented_digest(backend) == instrumented_digest("reference")


def test_fault_seed_changes_execution():
    from repro.core.bellman_ford import run_bellman_ford
    from repro.faults import FaultPlan

    g = random_graph(12, p=0.35, w_max=8, seed=7)
    stats = []
    for seed in (1, 2, 3):
        res = run_bellman_ford(g, 0, resilient=True,
                               fault_plan=FaultPlan(seed=seed,
                                                    drop_rate=0.3))
        stats.append((res.metrics.messages, dict(res.metrics.faults)))
    assert len({repr(s) for s in stats}) > 1  # seeds actually matter


def backend_digest(backend):
    """Pipelined APSP on one backend, reduced to a digest over every
    measurable observable (distances, rounds, per-channel and per-node
    counters)."""
    import hashlib

    g = random_graph(14, p=0.3, w_max=6, zero_fraction=0.3, seed=11)
    with engine(backend) as name:
        res = run_apsp(g, backend=name)
    m = res.metrics
    blob = repr((res.dist, m.rounds, m.messages, m.words,
                 m.active_rounds, m.skipped_rounds,
                 sorted(m.channel_messages.items()),
                 sorted(m.node_sends.items())))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("backend", ENGINES)
def test_backend_digest_matches_reference(backend):
    """The simulator backends are not merely equivalent-ish: the full
    observable digest is identical, and stable across runs."""
    assert backend_digest(backend) == backend_digest(backend)
    assert backend_digest(backend) == backend_digest("reference")


def test_backend_digest_stable_under_pythonhashseed():
    """No backend may leak hash ordering (worklist heaps, inbox dicts,
    and the columnar flush of flat counters into Counters are the
    obvious places a set/dict iteration could sneak in).  The subprocess
    iterates the registry itself, so a newly registered backend joins
    the adversarial check automatically."""
    import os
    import subprocess
    import sys

    code = (
        "from repro.perf.backends import BACKENDS; "
        "from test_determinism import backend_digest, instrumented_digest; "
        "names = sorted(BACKENDS); "
        "print(' '.join(backend_digest(b) for b in names), "
        "' '.join(instrumented_digest(b) for b in names))")
    outputs = set()
    for hashseed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", ""), "tests") if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))),
            env=env, capture_output=True, text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        plain = proc.stdout.split()[:len(BACKENDS)]
        instrumented = proc.stdout.split()[len(BACKENDS):]
        assert len(set(plain)) == 1, f"backend-dependent digest: {plain}"
        assert len(set(instrumented)) == 1, (
            f"backend-dependent instrumented digest: {instrumented}")
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"hash-seed-dependent executions: {outputs}"


def test_fault_digest_stable_under_pythonhashseed():
    """The digest survives PYTHONHASHSEED changes: fault coin flips are
    SHA-256-derived, never ``hash()``-derived.  Run the same digest in
    subprocesses with adversarial hash seeds and compare."""
    import os
    import subprocess
    import sys

    code = ("from test_determinism import fault_digest; "
            "print(fault_digest())")
    digests = set()
    for hashseed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", ""), "tests") if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))),
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, f"hash-seed-dependent executions: {digests}"
