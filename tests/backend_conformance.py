"""The backend-conformance suite: every registered simulator backend,
pinned to the reference backend by the same battery of checks.

Any entry in :data:`repro.perf.backends.BACKENDS` other than
``"reference"`` is automatically parametrized through every test here
-- add a backend to the registry and it is conformance-tested by
construction, with no hand-copied test modules -- and so is the
columnar engine's per-message loop (:data:`differential.LOOP`).  The
battery was first written for that loop, in
``tests/test_differential_backend.py``, then generalized over the
registry:

* Hypothesis graph corpora (directed/undirected, zero-weight-heavy,
  disconnected, single-node) through the algorithm entry points and the
  raw network interface;
* instrumented equality: fault plans, invariant monitors, tracers, and
  ring recorders attached, every observation compared -- including the
  failure outcome and its post-mortem;
* golden fixtures: the committed distance matrices *and* the committed
  metrics numbers;
* accounting-parity regressions for rounds that carry no payload;
* resumption: a ``RoundLimitExceeded`` mid-run, then a resumed ``run``
  with a larger budget, must replay to the uninterrupted execution;
* constructor-validation parity: the exact reference error texts;
* registry selection: explicit ``backend=`` and the ambient default.

The columnar backend gets three extra treatments: fixed cases that pin
each bulk kernel (entry point, per-program state, resumption,
checkpoints) and check that the bulk path is really taken; the
pipelined corpus run on each of the pipelined kernel's two delivery
paths (:func:`forced_round_path`); and the *mutation* tests at the
bottom that corrupt a columnar round on purpose to prove this suite
would catch a broken bulk kernel (the paranoid-mode trick of
``tests/test_node_list_kernels.py``).

Collected through ``tests/test_backend_conformance.py`` (pytest only
picks up ``test_*.py`` files); import the strategies and helpers from
here.
"""

import gc
import json
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    ENGINES,
    LOOP,
    assert_entrypoint_equivalent,
    assert_instrumented_equivalent,
    assert_networks_equivalent,
    engine,
    metrics_summary,
    post_mortem_summary,
    program_states,
)
from repro.congest import (
    Envelope,
    Network,
    NodeContext,
    Program,
    RoundLimitExceeded,
    TraceRecorder,
)
from repro.core import (
    apsp,
    run_apsp,
    run_apsp_blocker,
    run_hk_ssp,
    run_short_range,
)
from repro.core.bellman_ford import BellmanFordProgram, run_bellman_ford
from repro.core.keys import gamma_for
from repro.core.pipelined import PipelinedSSPProgram, theorem11_round_bound
from repro.core.unweighted import UnweightedAPSPProgram
from repro.faults import FaultPlan
from repro.faults.monitor import oracle_monitor
from repro.graphs import io as gio
from repro.graphs import WeightedDigraph, path_graph, random_graph
from repro.graphs.reference import weak_delta_bound
from repro.obs import ProfileSession, Tracer
from repro.perf import ColumnarNetwork, make_network, use_backend
from repro.perf import columnar as columnar_mod
from repro.perf import columnar_pipelined
from repro.perf.backends import BACKENDS
from repro.recovery import (
    RunCheckpoint,
    checkpoint_network,
    resume_from_checkpoint,
)

#: The parametrization axis of this whole module.
backends = pytest.mark.parametrize("backend", ENGINES)

#: The pipelined kernel's delivery paths and the threshold that forces
#: each on every round: 0 sends every round through the numpy gather
#: and reject pass, a count above any round's deliveries through the
#: small-round path.
ROUND_PATHS = {"numpy": 0, "small": 10 ** 9}


@contextmanager
def forced_round_path(path):
    """Run the body with every pipelined-kernel round on *path*."""
    saved = columnar_pipelined.SMALL_ROUND_DELIVERIES
    columnar_pipelined.SMALL_ROUND_DELIVERIES = ROUND_PATHS[path]
    try:
        yield
    finally:
        columnar_pipelined.SMALL_ROUND_DELIVERIES = saved


# p=0.0 gives totally disconnected graphs, zero_fraction=1.0 all-zero
# weights, n=1 the single-node network -- all must behave identically.
graphs = st.builds(
    random_graph,
    n=st.integers(1, 18),
    p=st.one_of(st.just(0.0), st.floats(0.05, 0.6)),
    w_max=st.integers(1, 9),
    zero_fraction=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.6)),
    directed=st.booleans(),
    seed=st.integers(0, 10_000),
)

small_graphs = st.builds(
    random_graph,
    n=st.integers(1, 12),
    p=st.one_of(st.just(0.0), st.floats(0.05, 0.6)),
    w_max=st.integers(1, 8),
    zero_fraction=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.6)),
    directed=st.booleans(),
    seed=st.integers(0, 10_000),
)


@backends
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_bellman_ford_differential(backend, data):
    g = data.draw(graphs)
    source = data.draw(st.integers(0, g.n - 1))
    assert_entrypoint_equivalent(run_bellman_ford, g, source,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bellman_ford_hop_limited_differential(backend, data):
    """The h-hop DP variant: ``max_hops`` truncation exercises the
    silent-round cutoff (senders scheduled past h execute but emit
    nothing), where round accounting diverges most easily."""
    g = data.draw(graphs)
    source = data.draw(st.integers(0, g.n - 1))
    h = data.draw(st.integers(1, max(1, g.n)))
    assert_entrypoint_equivalent(run_bellman_ford, g, source, max_hops=h,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


def assert_pipelined_states_equivalent(g, sources, h, backend):
    """Every program's ``snapshot_state()`` -- list entries, bests and
    ``last_sp_round`` -- equals the reference's after an Algorithm 1
    run, built as :func:`run_hk_ssp` builds it (same Delta, gamma and
    cutoff round) but at network level, where every program can be
    read."""
    sources = tuple(sources)
    k = len(sources)
    delta = weak_delta_bound(g, sources, h)
    gamma = gamma_for(h, k, delta)
    cutoff = theorem11_round_bound(h, k, delta)
    return assert_networks_equivalent(
        g, lambda v: PipelinedSSPProgram(v, sources, h, gamma,
                                         cutoff_round=cutoff),
        max_rounds=cutoff, backend=backend, states=True)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipelined_hk_ssp_differential(backend, data):
    g = data.draw(small_graphs)
    n = g.n
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=1, max_size=min(n, 4))))
    h = data.draw(st.integers(1, max(1, n - 1)))
    for path in ROUND_PATHS:
        with forced_round_path(path):
            assert_entrypoint_equivalent(
                run_hk_ssp, g, sources, h,
                compare=("dist", "sources", "delta"), backend=backend)
            assert_pipelined_states_equivalent(g, sources, h, backend)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_short_range_differential(backend, data):
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    h = data.draw(st.integers(1, max(1, g.n - 1)))
    assert_entrypoint_equivalent(run_short_range, g, source, h,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


def _wide_graph(w, off):
    """Arcs 0->1 (w), 1->2 (1), 0->2 (w + off), 2->3 (w).  With off = 3
    the distance 0 -> 3 is 2w + 1, which float64 rounds once w reaches
    2^52; at 2^62 and up the path sums leave int64 too."""
    return WeightedDigraph.from_edges(
        4, [(0, 1, w), (1, 2, 1), (0, 2, w + off), (2, 3, w)])


@backends
@pytest.mark.parametrize("method, w, off", [
    ("bellman-ford", 2 ** 52, 3), ("bellman-ford", 2 ** 53 + 1, 3),
    ("bellman-ford", 2 ** 62, 3), ("pipelined", 2 ** 62, 0),
    ("pipelined", 2 ** 64, 0)],
    ids=["bf-2^52", "bf-2^53+1", "bf-2^62", "pipelined-2^62",
         "pipelined-2^64"])
def test_wide_weights_match_reference(backend, method, w, off):
    """Every weight the graph model accepts gets the reference's exact
    answer and round count, including path sums past float64's
    53-bit mantissa and past int64."""
    assert_entrypoint_equivalent(apsp, _wide_graph(w, off), method=method,
                                 compare=("dist",), backend=backend)


@st.composite
def boundary_graphs(draw):
    """Random graphs whose largest weight sits one below or one above
    ``2^53 // (n - 1)``: the bulk kernels run below it and refuse the
    network above it, where ``(n - 1) * W`` reaches 2^53."""
    n = draw(st.integers(2, 8))
    top = 2 ** 53 // (n - 1) + draw(st.sampled_from([-1, 1]))
    base = random_graph(n, p=draw(st.floats(0.2, 0.8)), w_max=9,
                        zero_fraction=draw(st.floats(0.0, 0.4)),
                        seed=draw(st.integers(0, 10_000)))
    edges = [(u, v, top - w) for u, v, w in base.edges() if (u, v) != (0, 1)]
    return WeightedDigraph.from_edges(n, edges + [(0, 1, top)])


@backends
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_boundary_weights_differential(backend, data):
    g = data.draw(boundary_graphs())
    source = data.draw(st.integers(0, g.n - 1))
    assert_entrypoint_equivalent(run_bellman_ford, g, source,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)
    for path in ROUND_PATHS:
        with forced_round_path(path):
            assert_entrypoint_equivalent(
                run_hk_ssp, g, [source], g.n - 1,
                compare=("dist", "sources", "delta"), backend=backend)
    bulk = (g.n - 1) * g.max_weight < 2 ** 53
    bf = ColumnarNetwork(g, lambda v: BellmanFordProgram(v, source))
    assert (bf._columnar_kernel() is not None) == bulk
    pipelined = ColumnarNetwork(
        g, lambda v: PipelinedSSPProgram(v, (source,), h=g.n - 1, gamma=1.0))
    assert (pipelined._columnar_kernel() is not None) == bulk


@backends
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_raw_network_differential(backend, data):
    """Network-level comparison (sees per-channel counters directly) on
    the unweighted pipelined program, which exercises multi-round
    quiescence detection and idle-round skipping."""
    g = data.draw(small_graphs)
    srcs = tuple(range(g.n))
    assert_networks_equivalent(
        g, lambda v: UnweightedAPSPProgram(v, srcs, cutoff_round=2 * g.n),
        max_rounds=4 * g.n + len(srcs) + 16, backend=backend)


# --- instrumented differential: every hook attached, every hook
# --- observation compared --------------------------------------------

# Rates are drawn from a few fixed notches rather than full-range
# floats: the injector only compares the derived coin against the rate,
# so notches cover the behaviour space while shrinking well.
rate = st.sampled_from([0.0, 0.1, 0.3, 0.8])

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 10_000),
    drop_rate=rate,
    duplicate_rate=rate,
    delay_rate=rate,
    max_delay=st.integers(1, 5),
    corrupt_rate=st.sampled_from([0.0, 0.2]),
)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_instrumented_differential(backend, data):
    """The tentpole property: a fault-injected, monitored, traced,
    event-recorded run is indistinguishable across backends -- same
    outputs, same metrics (fault stats included), same trace event
    stream, same ring-recorder contents, and the same outcome (clean
    quiescence, RoundLimitExceeded, or InvariantViolation) with the
    same post-mortem."""
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    plan = data.draw(fault_plans)
    record_window = data.draw(st.sampled_from([0, 1, 3]))
    with_monitor = data.draw(st.booleans())
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, source),
        max_rounds=8 * g.n + 80,
        fault_plan=plan,
        monitor_factory=(lambda: oracle_monitor(g, [source]))
        if with_monitor else None,
        with_tracer=True,
        record_window=record_window,
        backend=backend,
    )


@st.composite
def composite_fault_plans(draw, n):
    """Plans that *combine* fault families -- delays, duplicates, and a
    link failure (plus optionally a transient crash window) in one plan,
    the interaction space the single-family notches above undersample."""
    from repro.faults import CrashWindow, LinkFailure

    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
    start = draw(st.integers(1, 6))
    end = draw(st.one_of(st.none(), st.integers(start, start + 8)))
    link = LinkFailure(u, v, start=start, end=end,
                       bidirectional=draw(st.booleans()))
    crashes = ()
    if draw(st.booleans()):
        c = draw(st.integers(1, 6))
        crashes = (CrashWindow(draw(st.integers(0, n - 1)), c,
                               c + draw(st.integers(1, 6))),)
    return FaultPlan(
        seed=draw(st.integers(0, 10_000)),
        delay_rate=draw(st.sampled_from([0.1, 0.3, 0.8])),
        duplicate_rate=draw(st.sampled_from([0.1, 0.3])),
        max_delay=draw(st.integers(1, 5)),
        link_failures=(link,),
        crashes=crashes,
    )


@backends
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_composite_fault_differential(backend, data):
    """Delays + duplicates + a link failure (and sometimes a transient
    crash) in ONE plan: the fault families interact in the delivery
    phase (a delayed duplicate can cross a failing link), and every
    backend must agree on every observation of the combined stream."""
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    plan = data.draw(composite_fault_plans(g.n))
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, source),
        max_rounds=10 * g.n + 120,
        fault_plan=plan,
        monitor_factory=None,
        with_tracer=True,
        record_window=data.draw(st.sampled_from([0, 2])),
        backend=backend,
    )


# --- resumption conformance: interrupt, post-mortem, resume ----------


def _run_resumed(network_cls, g, source, budgets, factory=None,
                 states=False):
    """Drive one network through a ``run`` per budget (absolute round
    numbers, reference resumption contract), capturing each leg's
    outcome -- including the round-limit post-mortem -- and the final
    state (with ``states=True``, every program's kernel state too)."""
    if factory is None:
        factory = lambda v: BellmanFordProgram(v, source)
    net = network_cls(g, factory)
    legs = []
    for budget in budgets:
        try:
            net.run(max_rounds=budget)
            legs.append(("quiesced",))
        except RoundLimitExceeded as exc:
            legs.append(("round-limit", str(exc),
                         post_mortem_summary(exc.post_mortem)))
    return {
        "legs": legs,
        "outputs": net.outputs(),
        "metrics": metrics_summary(net.metrics),
        "round": net._round,
        "states": program_states(net) if states else None,
    }


@backends
@pytest.mark.parametrize("budgets", [(2, 100), (1, 3, 100), (100, 100)],
                         ids=["interrupt", "twice", "rerun-quiescent"])
def test_resumption_conformance(backend, budgets):
    """A round-limited run resumed with a larger budget replays to the
    uninterrupted execution -- same interrupt round, same post-mortem
    (pending schedule, busiest channels, rendering), same accumulated
    metrics, no double-counting.  Re-running a quiescent network is a
    no-op on every backend."""
    g = random_graph(15, p=0.3, w_max=5, zero_fraction=0.2, seed=8,
                     directed=False)
    ref = _run_resumed(Network, g, 0, budgets)
    with engine(backend) as name:
        got = _run_resumed(BACKENDS[name], g, 0, budgets)
    assert got == ref, (
        f"{backend} backend diverged from reference across resumption: "
        + "; ".join(f"{k}: {backend}={got[k]!r} ref={ref[k]!r}"
                    for k in ref if got[k] != ref[k]))


# --- constructor-validation and selection parity ---------------------


class _NotAGraph:
    n = 0


@backends
def test_constructor_validation_parity(backend):
    """Every backend raises the reference backend's exact validation
    errors -- same type, same message text."""
    g = path_graph(3, w=1)
    factory = lambda v: BellmanFordProgram(v, 0)
    bad_calls = [
        ((_NotAGraph(), factory), {}),
        ((g, factory), {"max_message_words": 0}),
        ((g, factory), {"channel_capacity": 0}),
        ((g, factory), {"record_window": -1}),
        ((g, factory), {"fault_plan": object()}),
    ]
    for args, kwargs in bad_calls:
        with pytest.raises((ValueError, TypeError)) as ref_exc:
            Network(*args, **kwargs)
        with engine(backend) as name, \
                pytest.raises(type(ref_exc.value)) as got_exc:
            BACKENDS[name](*args, **kwargs)
        assert str(got_exc.value) == str(ref_exc.value), (backend, kwargs)


@backends
def test_registry_selection(backend, monkeypatch):
    """``make_network(backend=name)`` and the ``REPRO_BACKEND``
    environment default both construct the registered class -- and
    under :data:`LOOP` a network that runs the per-message loop."""
    from repro.perf import backends as backends_mod

    g = path_graph(3, w=1)
    factory = lambda v: BellmanFordProgram(v, 0)
    with engine(backend) as name:
        net = make_network(g, factory, backend=name)
        assert type(net) is BACKENDS[name]
        if backend == LOOP:
            assert net._columnar_kernel() is None
        monkeypatch.setenv("REPRO_BACKEND", name)
        monkeypatch.setattr(backends_mod, "_default_backend", None)
        assert type(make_network(g, factory)) is BACKENDS[name]


# --- targeted accounting regressions: rounds that carry no payload ----


class ScheduledMute(Program):
    """Node 0 announces in round 1, then *schedules* round 3 but sends
    nothing when it arrives -- an executed round with senders yet zero
    envelopes, the exact case where `active_rounds` and `rounds` part
    ways."""

    def __init__(self, v: int) -> None:
        self.v = v
        self._sched: List[int] = [1, 3] if v == 0 else []
        self.received: List[int] = []

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self._sched and self._sched[0] == r:
            self._sched.pop(0)
            if r == 1:
                ctx.broadcast("tick")  # round 3 stays silent

    def on_receive(self, ctx: NodeContext, r: int,
                   inbox: List[Envelope]) -> None:
        self.received.append(r)

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        return self._sched[0] if self._sched else None

    def output(self, ctx: NodeContext):
        return self.received


class TestAccountingParity:
    """`rounds` / `active_rounds` / `skipped_rounds` stay identical on
    rounds whose only activity is a no-op wake-up or a fault-delayed
    delivery."""

    def _line(self, n):
        return path_graph(n, w=1)

    @backends
    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=2)],
                             ids=["plain", "trivial-plan"])
    def test_zero_envelope_sender_round(self, backend, plan):
        ref, _got = assert_networks_equivalent(
            self._line(4), ScheduledMute, max_rounds=10, fault_plan=plan,
            backend=backend)
        # The scenario really exercised the gap: node 0 woke at round 3
        # and sent nothing, so the silent round is invisible to
        # `rounds`/`active_rounds` (both stop at the last round with
        # traffic, round 1) yet round 2 was skipped on the way there.
        assert (ref.metrics.rounds, ref.metrics.active_rounds,
                ref.metrics.skipped_rounds) == (1, 1, 1)

    @backends
    def test_delivery_only_rounds(self, backend):
        """With delay_rate=1 every envelope arrives late, so some rounds
        execute purely because the injector holds in-flight traffic --
        no backend may skip past them nor count them differently."""
        plan = FaultPlan(seed=11, delay_rate=1.0, max_delay=4)
        obs = assert_instrumented_equivalent(
            self._line(4), lambda v: BellmanFordProgram(v, 0),
            max_rounds=80, fault_plan=plan, with_tracer=True,
            backend=backend)
        m = obs["metrics"]
        assert m["faults"]["delays"] > 0
        assert m["active_rounds"] <= m["rounds"]

    @backends
    def test_delivery_only_rounds_with_gaps_skip_identically(self, backend):
        """Sparse schedule + long delays: the backend must jump to the
        delivery round (skipped_rounds) exactly like the reference scan
        does."""
        plan = FaultPlan(seed=5, delay_rate=1.0, max_delay=6)
        obs = assert_instrumented_equivalent(
            self._line(6), ScheduledMute, max_rounds=40,
            fault_plan=plan, with_tracer=True, record_window=2,
            backend=backend)
        assert obs["metrics"]["skipped_rounds"] >= 0  # parity already pinned


# --- golden fixtures: every backend must reproduce the frozen
# --- distances AND the frozen metrics numbers ------------------------

DATA = Path(__file__).parent / "data"
CASES = sorted(p.stem.replace(".apsp", "") for p in DATA.glob("*.apsp.json"))


def _golden_summary(m):
    full = metrics_summary(m)
    return {k: full[k] for k in ("rounds", "messages", "words",
                                 "active_rounds", "max_edge_congestion",
                                 "max_node_sends")}


@backends
@pytest.mark.parametrize("name", CASES)
def test_golden_fixture_differential(backend, name):
    g = gio.load(DATA / f"{name}.graph")
    mat = json.loads((DATA / f"{name}.apsp.json").read_text())
    expected = [[float("inf") if d is None else d for d in row]
                for row in mat]
    frozen = json.loads((DATA / f"{name}.metrics.json").read_text())

    for path in ROUND_PATHS:
        with forced_round_path(path):
            _ref, got = assert_entrypoint_equivalent(run_apsp, g,
                                                     backend=backend)
        assert got.dist == {x: expected[x] for x in range(g.n)}
        assert _golden_summary(got.metrics) == frozen["pipelined"], name

    # The blocker algorithm reaches the backend through the ambient
    # default (multi-phase; no per-call backend plumbing).
    with engine(backend) as name, use_backend(name):
        blk = run_apsp_blocker(g)
    assert blk.dist == {x: expected[x] for x in range(g.n)}
    assert _golden_summary(blk.metrics) == frozen["blocker"], name


@backends
@pytest.mark.parametrize("name", CASES)
def test_golden_fixture_instrumented_differential(backend, name):
    """The committed fixture graphs driven with *every* hook attached:
    a fixed seeded fault plan, the oracle monitor, a tracer, and the
    ring recorder.  Whatever happens (quiescence, round-limit, or a
    monitor violation from the injected corruption) must happen
    identically on every backend."""
    g = gio.load(DATA / f"{name}.graph")
    plan = FaultPlan(seed=13, drop_rate=0.1, duplicate_rate=0.1,
                     delay_rate=0.2, max_delay=3, corrupt_rate=0.1)
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, 0),
        max_rounds=20 * g.n + 100,
        fault_plan=plan,
        monitor_factory=lambda: oracle_monitor(g, [0]),
        with_tracer=True,
        record_window=3,
        backend=backend,
    )


# --- columnar-specific: each bulk kernel, bulk-path engagement, and
# --- mutation tests on the suite itself ------------------------------


def test_columnar_relaxation_kernel_agrees():
    """The relaxation kernel's whole observable surface matches the
    reference -- entry point, raw network, resumption."""
    g = random_graph(16, p=0.3, w_max=6, zero_fraction=0.3, seed=5,
                     directed=True)
    assert_entrypoint_equivalent(run_bellman_ford, g, 1,
                                 compare=("dist", "hops", "parent"),
                                 backend="columnar")
    assert_entrypoint_equivalent(run_bellman_ford, g, 1, max_hops=3,
                                 compare=("dist", "hops", "parent"),
                                 backend="columnar")
    ref = _run_resumed(Network, g, 1, (2, 100))
    got = _run_resumed(ColumnarNetwork, g, 1, (2, 100))
    assert got == ref


def test_columnar_pipelined_kernel_agrees():
    """The pipelined bulk kernel matches the reference on both delivery
    paths -- entry point, per-program state, resumption, and a
    checkpoint taken mid-run and resumed from its JSON."""
    g = random_graph(14, p=0.35, w_max=6, zero_fraction=0.3, seed=7,
                     directed=True)
    factory = lambda v: PipelinedSSPProgram(v, (0, 4, 9), h=5, gamma=1.5)
    ref = _run_resumed(Network, g, 0, (5, 10 ** 5), factory=factory,
                       states=True)
    for path in ROUND_PATHS:
        with forced_round_path(path):
            assert_entrypoint_equivalent(
                run_hk_ssp, g, [0, 4, 9], 5,
                compare=("dist", "sources", "delta"), backend="columnar")
            assert_pipelined_states_equivalent(g, [0, 4, 9], 5, "columnar")
            got = _run_resumed(ColumnarNetwork, g, 0, (5, 10 ** 5),
                               factory=factory, states=True)
            assert got == ref, path

            net = ColumnarNetwork(g, factory)
            with pytest.raises(RoundLimitExceeded):
                net.run(max_rounds=5)
            ckpt = RunCheckpoint.from_json(checkpoint_network(net).to_json())
            outs, metrics, resumed = resume_from_checkpoint(
                ckpt, g, factory, 10 ** 5, backend="columnar")
            assert (outs, metrics_summary(metrics),
                    program_states(resumed)) == \
                (ref["outputs"], ref["metrics"], ref["states"]), path


def test_columnar_pipelined_kernel_folds_through_the_program(monkeypatch):
    """Steps 8-13 exist once: the pipelined kernel hands every arrival
    its reject pass keeps to ``PipelinedSSPProgram.fold``.  The spy is
    patched onto the class, so ``matches()`` still accepts the
    programs, and the round timer proves the kernel ran."""
    calls = []
    fold = PipelinedSSPProgram.fold

    def spy(self, *args):
        calls.append(args)
        return fold(self, *args)

    g = random_graph(14, p=0.35, w_max=6, zero_fraction=0.3, seed=7,
                     directed=True)
    want = run_hk_ssp(g, [0, 4, 9], 5, backend="reference")
    monkeypatch.setattr(PipelinedSSPProgram, "fold", spy)
    for path in ROUND_PATHS:
        calls.clear()
        with forced_round_path(path), ProfileSession() as prof:
            got = run_hk_ssp(g, [0, 4, 9], 5, backend="columnar")
        assert prof.timers["columnar.pipelined.round"].count >= 1, path
        assert calls, path
        assert (got.dist, got.hops, got.parent, got.metrics.rounds) == \
            (want.dist, want.hops, want.parent, want.metrics.rounds), path


def _list_sizes(p):
    """A program's list length and each of its sources' entry counts."""
    nl = p.list_v
    return len(nl), [nl.count_for_source(x) for x in p.sources]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipelined_lists_never_shrink(data):
    """``run_hk_ssp`` reads ``max_list_len`` and
    ``max_entries_per_source`` off the final lists.  That is exact
    because no ``fold`` call lowers a list's length or any source's
    entry count -- on the reference and on both of the kernel's round
    paths, under both eviction policies -- so both fields equal the
    largest sizes any list reached during the run."""
    g = data.draw(small_graphs)
    n = g.n
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=1, max_size=min(n, 4))))
    h = data.draw(st.integers(1, max(1, n - 1)))
    fold, on_start = PipelinedSSPProgram.fold, PipelinedSSPProgram.on_start
    programs = []
    seen = [0, 0]  # largest list length, largest per-source count

    def note(p):
        ln, counts = _list_sizes(p)
        seen[0] = max(seen[0], ln)
        seen[1] = max([seen[1]] + counts)

    def start_spy(self, ctx):
        on_start(self, ctx)
        programs.append(self)
        note(self)

    def fold_spy(self, *args):
        ln, counts = _list_sizes(self)
        changed = fold(self, *args)
        ln2, counts2 = _list_sizes(self)
        assert ln2 >= ln and all(b >= a for a, b in zip(counts, counts2)), \
            (self.v, args, (ln, counts), (ln2, counts2))
        note(self)
        return changed

    # The reference has no round paths; it runs once.
    runs = [("reference", "numpy")] + [("columnar", p) for p in ROUND_PATHS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PipelinedSSPProgram, "fold", fold_spy)
        mp.setattr(PipelinedSSPProgram, "on_start", start_spy)
        for eviction in ("budget", "always"):
            for backend, path in runs:
                programs.clear()
                seen[:] = [0, 0]
                with forced_round_path(path):
                    res = run_hk_ssp(g, sources, h, eviction=eviction,
                                     backend=backend)
                assert len(programs) == n
                final = (max(len(p.list_v) for p in programs),
                         max(p.list_v.max_entries_any_source()
                             for p in programs))
                assert (res.max_list_len, res.max_entries_per_source) \
                    == final == tuple(seen), (eviction, backend, path)


def test_columnar_pipelined_state_two_node_cycle():
    """Graph 0 <-> 1 (weight 3), sources {0}.  Node 0's only arrival,
    its own distance echoed back by node 1, changes nothing: the
    kernel's reject pass may drop it, and node 0's state must still
    equal the reference's, its list holding just the source entry
    ``on_start`` inserted."""
    g = WeightedDigraph.from_edges(2, [(0, 1, 3), (1, 0, 3)])
    for path in ROUND_PATHS:
        with forced_round_path(path):
            _ref, alt = assert_pipelined_states_equivalent(g, [0], 1,
                                                           "columnar")
        assert alt._columnar_kernel() is not None
        assert len(alt.programs[0].list_v) == 1


def test_columnar_bulk_path_engaged():
    """Guard against the columnar backend silently running everything
    on the inherited loop: the relaxation family AND the pipelined
    (h, k)-SSP family take their bulk kernels; hooked runs,
    instrumented programs, and mixed-parameter networks do not."""
    g = path_graph(4, w=2)
    bf = lambda v: BellmanFordProgram(v, 0)
    assert ColumnarNetwork(g, bf)._columnar_kernel() is not None
    assert ColumnarNetwork(g, bf, tracer=Tracer())._columnar_kernel() is None
    assert ColumnarNetwork(g, bf, record_window=2)._columnar_kernel() is None
    assert ColumnarNetwork(
        g, bf, fault_plan=FaultPlan(seed=1, drop_rate=0.5),
    )._columnar_kernel() is None
    # Mixed hop caps break the single-wavefront cutoff; fall back.
    mixed = lambda v: BellmanFordProgram(v, 0, max_hops=v + 1)
    assert ColumnarNetwork(g, mixed)._columnar_kernel() is None

    # The pipelined family is bulk-eligible since the columnar_pipelined
    # kernel landed...
    pipelined = lambda v: PipelinedSSPProgram(v, (0,), h=3, gamma=1.0)
    assert ColumnarNetwork(g, pipelined)._columnar_kernel() is not None
    # ...but network hooks and per-program instrumentation still take
    # the generic loop:
    assert ColumnarNetwork(
        g, pipelined, tracer=Tracer())._columnar_kernel() is None
    traced = lambda v: PipelinedSSPProgram(v, (0,), h=3, gamma=1.0,
                                           trace=TraceRecorder())
    assert ColumnarNetwork(g, traced)._columnar_kernel() is None
    mixed_h = lambda v: PipelinedSSPProgram(v, (0,), h=3 if v else 2,
                                            gamma=1.0)
    assert ColumnarNetwork(g, mixed_h)._columnar_kernel() is None
    # Paranoid mode is a *dynamic* condition: the memoized kernel steps
    # aside while it is on and returns when it is off.
    from repro.core.node_list import set_paranoid
    net = ColumnarNetwork(g, pipelined)
    assert net._columnar_kernel() is not None
    prev = set_paranoid(True)
    try:
        assert net._columnar_kernel() is None
    finally:
        set_paranoid(prev)
    assert net._columnar_kernel() is not None


def test_columnar_eligibility_scan_memoized():
    """The O(n + m) eligibility scan runs once per network, not once
    per ``run()`` entry: re-entries after a round limit, resumption
    legs, and re-running a quiescent network all reuse the memoized
    verdict (positive or negative)."""
    g = random_graph(12, p=0.4, w_max=5, seed=2, directed=True)

    def drive(factory):
        net = ColumnarNetwork(g, factory)
        assert net._eligibility_scans == 0
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=1)
        net.run(max_rounds=10 ** 5)   # resume to quiescence
        net.run(max_rounds=10 ** 5)   # re-run the quiescent network
        return net._eligibility_scans

    assert drive(lambda v: BellmanFordProgram(v, 0)) == 1
    assert drive(
        lambda v: PipelinedSSPProgram(v, (0, 3), h=4, gamma=1.25)) == 1
    # A negative verdict is memoized too (the generic loop still runs).
    net = ColumnarNetwork(g, ScheduledMute)
    net.run(max_rounds=10)
    net.run(max_rounds=10)
    assert net._eligibility_scans == 1


def test_columnar_network_freed_by_refcount():
    """The memoized kernel holds no link back to its network, so a
    solved network -- programs, lists and entries -- is freed when its
    last outside reference goes, not at the next full collection."""
    g = random_graph(12, p=0.4, w_max=5, seed=2, directed=True)
    factories = (lambda v: BellmanFordProgram(v, 0),
                 lambda v: PipelinedSSPProgram(v, (0, 3), h=4, gamma=1.25))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for factory in factories:
            net = ColumnarNetwork(g, factory)
            net.run(max_rounds=10 ** 5)
            assert net._columnar_kernel() is not None
            alive = weakref.ref(net)
            del net
            assert alive() is None
    finally:
        if enabled:
            gc.enable()


#: Which corruption mode perturbs which bulk kernel (the partition test
#: below keeps these in sync with the registry, so a future mode cannot
#: silently go mutation-untested).
_BF_CORRUPTION_MODES = ("evict-off-by-one", "stale-count")
_PIPELINED_CORRUPTION_MODES = ("send-rank-off-by-one", "nu-off-by-one",
                               "reject-filter-off-by-one")


class TestConformanceCatchesCorruption:
    """Mutation tests for the suite itself: a deliberately broken
    columnar round MUST make the differential assertions fail.  If one
    of these stops failing, the conformance suite has lost the power
    this PR relies on -- mirroring the paranoid-mode self-checks of
    tests/test_node_list_kernels.py."""

    def _graph(self):
        # A path from the source: every wavefront is small, so both
        # corruption modes perturb observables immediately.
        return path_graph(6, w=2)

    def _pipelined_corpus(self):
        """Deterministic replays of the Hypothesis pipelined strategy
        (multi-source random graphs with zero-weight edges, plus the
        canonical path): instances on which the pipelined corruption
        modes provably perturb the execution."""
        return [
            (random_graph(12, p=0.4, w_max=5, zero_fraction=0.2, seed=0),
             [0, 3, 5], 5),
            (random_graph(12, p=0.4, w_max=5, zero_fraction=0.2, seed=9),
             [0, 3, 5], 5),
            (path_graph(6, w=2), [0], 3),
        ]

    def test_modes_partition_the_registry(self):
        assert sorted(_BF_CORRUPTION_MODES + _PIPELINED_CORRUPTION_MODES) \
            == sorted(columnar_mod.CORRUPTION_MODES)

    @pytest.mark.parametrize("mode", _BF_CORRUPTION_MODES)
    def test_corrupted_round_is_caught(self, mode):
        prev = columnar_mod.set_corruption(mode)
        try:
            with pytest.raises(AssertionError,
                               match="columnar backend diverged"):
                assert_entrypoint_equivalent(
                    run_bellman_ford, self._graph(), 0,
                    compare=("dist", "hops", "parent"), backend="columnar")
        finally:
            columnar_mod.set_corruption(prev)

    @pytest.mark.parametrize("mode", _PIPELINED_CORRUPTION_MODES)
    def test_corrupted_pipelined_round_is_caught(self, mode):
        """A corrupted send-schedule rank (entries firing a round early)
        and a corrupted nu-count (one entry of padding too many) must
        both be caught on *every* corpus instance, on both delivery
        paths.

        A corrupted reject pass (dropping deliveries whose nu is one
        above the count, which the quota admits) exists only on the
        numpy path, and drops only non-promotions, which the
        single-source path graph never receives -- so it must be caught
        on every multi-source instance.  What it drops is padding, so
        the corrupted run either diverges or trips the kernel's inline
        Invariant 1 check on an insert the padding would have pushed
        later; the reference run of each instance is clean (see the
        uncorrupted control)."""
        corpus = self._pipelined_corpus()
        caught = "columnar backend diverged"
        paths = list(ROUND_PATHS)
        if mode == "reject-filter-off-by-one":
            corpus = [c for c in corpus if len(c[1]) > 1]
            caught += "|Invariant 1 violated"
            paths = ["numpy"]
        prev = columnar_mod.set_corruption(mode)
        try:
            for path in paths:
                for g, srcs, h in corpus:
                    with forced_round_path(path), \
                            pytest.raises(AssertionError, match=caught):
                        assert_entrypoint_equivalent(
                            run_hk_ssp, g, srcs, h,
                            compare=("dist", "sources", "delta"),
                            backend="columnar")
        finally:
            columnar_mod.set_corruption(prev)

    def test_uncorrupted_control(self):
        """The same checks pass with corruption off -- the mutation
        tests above cannot be passing vacuously."""
        assert_entrypoint_equivalent(
            run_bellman_ford, self._graph(), 0,
            compare=("dist", "hops", "parent"), backend="columnar")
        for path in ROUND_PATHS:
            with forced_round_path(path):
                for g, srcs, h in self._pipelined_corpus():
                    assert_entrypoint_equivalent(
                        run_hk_ssp, g, srcs, h,
                        compare=("dist", "sources", "delta"),
                        backend="columnar")
                    assert_pipelined_states_equivalent(g, srcs, h,
                                                       "columnar")

    def test_unknown_corruption_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            columnar_mod.set_corruption("flip-random-bit")
