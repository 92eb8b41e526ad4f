"""The recovery subsystem: checkpoint/restore, crash-recovery with
rollback + neighbour replay, incremental re-convergence, and the chaos
campaign.

The acceptance claims pinned here:

* a run suspended at any round, serialized to JSON, and resumed in a
  freshly built network -- on either backend -- finishes bit-identically
  to the uninterrupted run;
* a node crashed with ``restart_from="checkpoint"`` loses its volatile
  state, rolls back to its last snapshot, re-synchronizes via neighbour
  replay, and the whole network still converges to the exact Dijkstra
  distances -- with identical instrumented observations across backends;
* :class:`~repro.recovery.DynamicRun` repairs an updated graph by
  re-running only the affected sources, its ``rounds_to_repair`` is
  never more than the from-scratch recompute (strictly less when some
  source is unaffected), and a crash *during* the repair changes none
  of that -- with bit-identical digests across backends.
"""

import base64
import copy
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import ENGINES, engine
from repro.congest import Network, RoundLimitExceeded
from repro.core import RoutingTable
from repro.core.api import k_ssp
from repro.core.bellman_ford import BellmanFordProgram
from repro.faults import CrashWindow, FaultPlan
from repro.graphs import WeightedDigraph, random_graph
from repro.graphs.reference import dijkstra
from repro.perf.backends import make_network
from repro.recovery import (
    CheckpointError,
    CheckpointStore,
    DynamicRun,
    EdgeUpdate,
    NodeCheckpoint,
    NodeJoin,
    NodeLeave,
    RecoverableProgram,
    RunCheckpoint,
    capture_state,
    checkpoint_network,
    decode_value,
    encode_value,
    recovery_monitor,
    restore_network,
    restore_state,
    resume_from_checkpoint,
    run_recoverable,
)
from repro.recovery.chaos import ChaosCase, build_case, run_chaos_case

INF = float("inf")


def bf_factory(source=0):
    return lambda v: BellmanFordProgram(v, source=source)


#: Set by :class:`_Planted` when a checkpoint payload is unpickled.
_PLANTED_RAN = []


def _planted_hook():
    _PLANTED_RAN.append(True)


class _Planted:
    """A payload whose unpickling runs code (``_planted_hook``)."""

    def __reduce__(self):
        return (_planted_hook, ())


# ---------------------------------------------------------------------------
# Codec and program-state capture
# ---------------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -3, 7,
        1.5, INF, -INF, 0.1 + 0.2,     # floats via repr: exact round-trip
        "plain string", "",
        (1, 2, (3, "x")), [1, [2, 3]], (),
        {"a": 1, "b": [2.5, INF]},
        {(0, 1): 4, (1, 2): INF},      # tuple keys
        {1: {2: (3,)}},
    ])
    def test_roundtrip_exact(self, value):
        got = decode_value(json.loads(json.dumps(encode_value(value))))
        assert got == value
        assert type(got) is type(value)

    def test_roundtrip_collections(self):
        from collections import Counter, deque
        for value in [{1, 2, 3}, frozenset({(1, 2)}),
                      deque([1, 2]), deque([1, 2, 3], maxlen=5),
                      Counter({"a": 2, (0, 1): 1})]:
            got = decode_value(json.loads(json.dumps(encode_value(value))))
            assert got == value
            assert type(got) is type(value)
        assert decode_value(encode_value(deque([1], maxlen=4))).maxlen == 4

    def test_int_vs_float_preserved(self):
        assert decode_value(encode_value(3)) == 3
        assert isinstance(decode_value(encode_value(3)), int)
        assert isinstance(decode_value(encode_value(3.0)), float)

    def test_unencodable_value_raises(self):
        with pytest.raises(CheckpointError, match="not JSON-checkpointable"):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(CheckpointError, match="unknown codec tag"):
            decode_value({"~": "nope", "v": []})


class TestCaptureState:
    def test_capture_restore_roundtrip_on_bellman_ford(self):
        p = BellmanFordProgram(3, source=0)
        p.d, p.hops, p.parent, p._announce = 7.0, 2, 1, 5
        snap = capture_state(p)
        p.d, p._announce = 1.0, None  # diverge after the snapshot
        restore_state(p, snap)
        assert (p.d, p.hops, p.parent, p._announce) == (7.0, 2, 1, 5)

    def test_snapshot_detached_from_live_state(self):
        p = BellmanFordProgram(0, source=0)
        p.extra = {"k": [1, 2]}
        snap = capture_state(p)
        p.extra["k"].append(3)
        restore_state(p, snap)
        assert p.extra == {"k": [1, 2]}

    def test_custom_protocol_preferred(self):
        class Custom:
            def __init__(self):
                self.x = 1

            def snapshot_state(self):
                return {"x": self.x}

            def restore_state(self, state):
                self.x = state["x"]

        c = Custom()
        snap = capture_state(c)
        assert snap[0] == "custom"
        c.x = 99
        restore_state(c, snap)
        assert c.x == 1

    def test_identity_sharing_survives(self):
        # One deepcopy memo: attributes referencing the same object must
        # still do so after restore (every program without the
        # snapshot_state protocol is captured this way).
        p = BellmanFordProgram(0, source=0)
        shared = [1]
        p.a, p.b = shared, {"ref": shared}
        snap = capture_state(p)
        restore_state(p, snap)
        assert p.a is p.b["ref"]


# ---------------------------------------------------------------------------
# Run-level checkpoints: suspend / serialize / resume
# ---------------------------------------------------------------------------

def _suspend(net, at_round):
    try:
        net.run(max_rounds=at_round)
    except RoundLimitExceeded:
        pass  # suspension point: the run is mid-flight by design
    return checkpoint_network(net, label=f"r{at_round}")


class TestRunCheckpoint:
    @pytest.mark.parametrize("suspend_backend", ["reference", *ENGINES])
    @pytest.mark.parametrize("resume_backend", ["reference", *ENGINES])
    def test_resume_equals_uninterrupted(self, suspend_backend,
                                         resume_backend):
        g = random_graph(10, p=0.4, w_max=6, zero_fraction=0.2, seed=3)
        with engine(suspend_backend) as name:
            net = make_network(g, bf_factory(), backend=name)
            ckpt = _suspend(net, at_round=3)
        # Through the serialized form: what resumes is the JSON, not the
        # live object graph.
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        with engine(resume_backend) as name:
            full = make_network(g, bf_factory(), backend=name)
            m_full = full.run(max_rounds=60)
            outs, metrics, _ = resume_from_checkpoint(
                ckpt, g, bf_factory(), 60, backend=name)
        assert outs == full.outputs()
        assert metrics.rounds == m_full.rounds
        assert metrics.messages == m_full.messages

    def test_resume_under_faults_replays_in_flight(self):
        # Delayed envelopes sitting in the injector when the run stops
        # must survive the checkpoint, or the resumed run diverges.
        g = random_graph(10, p=0.4, w_max=6, seed=7)
        plan = FaultPlan(seed=5, delay_rate=0.4, max_delay=4,
                         duplicate_rate=0.2)
        full = make_network(g, bf_factory(), fault_plan=plan)
        m_full = full.run(max_rounds=200)

        net = make_network(g, bf_factory(), fault_plan=plan)
        ckpt = _suspend(net, at_round=4)
        assert ckpt.in_flight or ckpt.fault_stats is not None
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        outs, metrics, _ = resume_from_checkpoint(
            ckpt, g, bf_factory(), 200, fault_plan=plan)
        assert outs == full.outputs()
        assert metrics.rounds == m_full.rounds
        assert dict(metrics.faults) == dict(m_full.faults)

    def test_version_gate(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        data = json.loads(ckpt.to_json())
        # 99: a future layout; 1: the layout whose pipelined rows carried
        # a send log and whose snapshots carried list-size statistics;
        # 2: the layout whose pipelined snapshots carried a best map.
        for version in (99, 1, 2):
            data["version"] = version
            with pytest.raises(CheckpointError, match="version"):
                RunCheckpoint.from_json(json.dumps(data))

    def test_digest_detects_corruption(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        data = json.loads(ckpt.to_json())
        # Tamper with one node's state but keep its recorded digest.
        data["nodes"][0]["state"]["data"]["v"][0][1] = 12345
        tampered = RunCheckpoint.from_json(json.dumps(data))
        fresh = make_network(g, bf_factory())
        with pytest.raises(CheckpointError, match="digest mismatch"):
            restore_network(fresh, tampered)

    def test_restore_requires_fresh_network(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        with pytest.raises(CheckpointError, match="freshly built"):
            restore_network(net, ckpt)  # this network already ran

    def test_store_roundtrip(self, tmp_path):
        g = random_graph(6, p=0.5, w_max=4, seed=2)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        store = CheckpointStore(tmp_path)
        store.save("mid", ckpt)
        assert store.names() == ["mid"]
        loaded = store.load("mid")
        assert loaded.digest == ckpt.digest
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("missing")
        with pytest.raises(CheckpointError, match="bad checkpoint name"):
            store.path_of("../evil")

    def test_checkpoint_of_pipelined_state_is_json(self):
        # Algorithm 1's entry lists are identity-linked structures; the
        # program's own snapshot_state() flattens them for the JSON codec.
        from repro.core.pipelined import (PipelinedSSPProgram, gamma_for,
                                          weak_delta_bound)

        g = random_graph(8, p=0.4, w_max=4, zero_fraction=0.3, seed=4)
        sources, h = (0, 2), g.n - 1
        gamma = gamma_for(h, len(sources), weak_delta_bound(g, sources, h))
        factory = lambda v: PipelinedSSPProgram(v, sources, h, gamma)
        full = make_network(g, factory)
        full.run(max_rounds=20 * g.n + 200)

        net = make_network(g, factory)
        ckpt = _suspend(net, at_round=5)
        assert all(c.state["codec"] == "json" for c in ckpt.nodes)
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        outs, _, _ = resume_from_checkpoint(
            ckpt, g, factory, 20 * g.n + 200)
        assert outs == full.outputs()

    def test_planted_payload_refused_before_decoding(self):
        # A node snapshot tagged with any codec but json is refused
        # before its data is decoded: loading a checkpoint file must
        # never run code from it.
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        ckpt = _suspend(make_network(g, bf_factory()), at_round=2)
        data = json.loads(ckpt.to_json())
        blob = base64.b64encode(pickle.dumps(_Planted())).decode("ascii")
        data["nodes"][0]["state"] = {"kind": "attrs", "codec": "pickle",
                                     "data": blob}
        data["nodes"][0]["digest"] = ""  # recomputed: a consistent file
        planted = RunCheckpoint.from_json(json.dumps(data))
        with pytest.raises(CheckpointError, match="codec"):
            restore_network(make_network(g, bf_factory()), planted)
        assert _PLANTED_RAN == []


# ---------------------------------------------------------------------------
# Crash recovery: rollback + replay
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def _plan(self, node=2, crash=4, restart=9, **kwargs):
        return FaultPlan(crashes=(CrashWindow(
            node, crash, restart, restart_from="checkpoint"),), **kwargs)

    @pytest.mark.parametrize("backend", ["reference", *ENGINES])
    def test_converges_to_dijkstra_after_rollback(self, backend):
        g = random_graph(10, p=0.4, w_max=6, zero_fraction=0.2, seed=3)
        true, _ = dijkstra(g, 0)
        with engine(backend) as name:
            outs, _, _, stats = run_recoverable(
                g, bf_factory(), 600, fault_plan=self._plan(),
                checkpoint_every=3, backend=name)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks >= 1
        assert stats.replayed_frames > 0

    def test_rollback_actually_loses_state(self):
        # The crashed node's wrapper must report a rollback *and* the
        # inner state must have been restored from a snapshot (we pin
        # that by checking the node still converges -- pure omission
        # without replay would leave it stuck with stale skew).
        g = random_graph(12, p=0.35, w_max=8, seed=9)
        true, _ = dijkstra(g, 0)
        plan = self._plan(node=5, crash=3, restart=11)
        outs, _, net, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=2)
        assert stats.rollbacks == 1
        assert net.programs[5].rollbacks == 1
        assert net.programs[5]._skew > 0
        assert [o[0] for o in outs] == list(true)

    def test_with_delays_and_duplicates(self):
        g = random_graph(12, p=0.35, w_max=8, seed=2)
        true, _ = dijkstra(g, 0)
        plan = self._plan(node=3, crash=5, restart=12,
                          seed=7, delay_rate=0.2, max_delay=3,
                          duplicate_rate=0.1)
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=4)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks >= 1

    def test_multiple_crash_windows(self):
        g = random_graph(12, p=0.4, w_max=6, seed=6)
        true, _ = dijkstra(g, 0)
        plan = FaultPlan(crashes=(
            CrashWindow(2, 3, 8, restart_from="checkpoint"),
            CrashWindow(7, 6, 14, restart_from="checkpoint"),
        ))
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=3)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks == 2

    def test_under_rollback_aware_monitor(self):
        # The plain monotonicity invariant would fire on the rollback;
        # the rollback-aware one must ride through it while the lower
        # bound stays armed the whole time.
        g = random_graph(10, p=0.4, w_max=6, seed=3)
        true, _ = dijkstra(g, 0)
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 600, fault_plan=self._plan(),
            checkpoint_every=3, monitor=recovery_monitor(g, [0]))
        assert stats.rollbacks >= 1
        assert [o[0] for o in outs] == list(true)

    def test_instrumented_equivalence_across_backends(self):
        from differential import assert_instrumented_equivalent
        from repro.recovery import checkpoint_windows_of

        g = random_graph(10, p=0.4, w_max=6, seed=5)
        plan = self._plan(node=4, crash=4, restart=10,
                          seed=3, delay_rate=0.2, max_delay=2)

        def factory(v):
            return RecoverableProgram(
                BellmanFordProgram(v, source=0), node=v,
                windows=checkpoint_windows_of(plan, v),
                checkpoint_every=3, replay_slack=2)

        assert_instrumented_equivalent(
            g, factory, max_rounds=800, fault_plan=plan,
            monitor_factory=lambda: recovery_monitor(g, [0]),
            with_tracer=True, record_window=3,
            max_message_words=8 + RecoverableProgram.frame_overhead_words())

    def test_snapshots_persisted_to_store(self, tmp_path):
        g = random_graph(8, p=0.4, w_max=4, seed=1)
        store = CheckpointStore(tmp_path)
        run_recoverable(g, bf_factory(), 600, fault_plan=self._plan(),
                        checkpoint_every=3, store=store, run_label="t")
        names = store.node_names()
        assert names and all(n.startswith("t-n") for n in names)
        ck = store.load_node(names[0])
        assert isinstance(ck, NodeCheckpoint)

    def test_replay_window_pruning_counts_gaps(self):
        g = random_graph(10, p=0.4, w_max=6, seed=3)
        true, _ = dijkstra(g, 0)
        # A 1-round log cannot cover the rollback's request horizon.
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=self._plan(crash=6, restart=12),
            checkpoint_every=2, replay_window=1)
        assert stats.replay_gaps > 0
        # Bellman-Ford self-stabilizes: pre-crash knowledge the replay
        # could not recover is already reflected in the neighbours'
        # estimates, so convergence must still hold.
        assert [o[0] for o in outs] == list(true)

    def test_wrapper_validates_windows(self):
        inner = BellmanFordProgram(0, source=0)
        state_cw = CrashWindow(0, 2, 5)  # restart_from="state"
        with pytest.raises(ValueError, match="not a checkpoint-restart"):
            RecoverableProgram(inner, node=0, windows=(state_cw,))
        other = CrashWindow(3, 2, 5, restart_from="checkpoint")
        with pytest.raises(ValueError, match="belongs to node 3"):
            RecoverableProgram(inner, node=0, windows=(other,))
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoverableProgram(inner, node=0, checkpoint_every=0)

    def test_faultfree_wrapped_run_matches_plain(self):
        g = random_graph(10, p=0.4, w_max=6, seed=11)
        plain = Network(g, bf_factory())
        plain.run(max_rounds=60)
        outs, _, _, stats = run_recoverable(g, bf_factory(), 200)
        assert outs == plain.outputs()
        assert stats.rollbacks == 0

    def test_determinism(self):
        g = random_graph(10, p=0.4, w_max=6, seed=8)
        plan = self._plan(seed=13, delay_rate=0.2, duplicate_rate=0.1)

        def run():
            outs, m, _, stats = run_recoverable(
                g, bf_factory(), 800, fault_plan=plan, checkpoint_every=3)
            return (outs, m.rounds, m.messages, dict(m.faults),
                    stats.as_dict())

        assert run() == run()


# ---------------------------------------------------------------------------
# DynamicRun: incremental re-convergence
# ---------------------------------------------------------------------------

class TestDynamicRun:
    def _graph(self, seed=5, n=10):
        return random_graph(n, p=0.35, w_max=6, zero_fraction=0.2,
                            seed=seed)

    def test_initial_table_matches_oracle(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3, 7], method="bellman-ford")
        assert run.oracle_check() == []

    def test_event_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeUpdate(2, 2, 1)
        with pytest.raises(ValueError, match="weight"):
            EdgeUpdate(0, 1, -3)
        with pytest.raises(ValueError, match="touch"):
            NodeJoin(5, ((1, 2, 3),))
        with pytest.raises(TypeError, match="event"):
            DynamicRun(self._graph(), [0]).apply("not an event")

    @pytest.mark.parametrize("weight", [2.5, True, float("nan"),
                                        float("inf")])
    def test_events_refuse_weights_the_graph_refuses(self, weight):
        """An event's weight follows ``WeightedDigraph.add_edge``'s rule
        (an ``int``, not a ``bool``, >= 0) and is refused where it
        enters, not later inside the graph rebuild of ``apply``."""
        with pytest.raises(ValueError, match="weight"):
            EdgeUpdate(0, 1, weight)
        with pytest.raises(ValueError, match="weight"):
            NodeJoin(3, ((3, 4, weight),))

    @pytest.mark.parametrize("method", ["bellman-ford", "pipelined"])
    def test_edge_updates_stay_oracle_correct(self, method):
        g = self._graph()
        run = DynamicRun(g, [0, 3, 7], method=method)
        for ev in (EdgeUpdate(0, 1, 0), EdgeUpdate(1, 4, 9),
                   EdgeUpdate(0, 1, None)):
            run.apply(ev)
            assert run.oracle_check() == [], f"{method} wrong after {ev}"

    def test_node_leave_and_join(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3], method="bellman-ford")
        run.apply(NodeLeave(5))
        assert run.oracle_check() == []
        # A leave makes the node unreachable from every source.
        assert all(run.table[s][5] == INF for s in (0, 3))
        run.apply(NodeJoin(5, ((5, 2, 1), (4, 5, 2))))
        assert run.oracle_check() == []
        assert any(run.table[s][5] < INF for s in (0, 3))

    def test_auto_repair_after_node_0_leaves(self):
        """A leave isolates its node, and node 0 roots Algorithm 3's BFS
        tree: ``auto`` must not repair with Algorithm 3 (which left 39
        pairs wrong here)."""
        g = random_graph(20, p=0.2, w_max=6, zero_fraction=0.2, seed=0)
        run = DynamicRun(g)
        run.apply(NodeLeave(0))
        assert run.oracle_check() == []

    def test_affected_sources_are_a_superset_of_changed_rows(self):
        g = self._graph(seed=7)
        run = DynamicRun(g, list(range(g.n)), method="bellman-ford")
        before = copy.deepcopy(run.table)
        rec = run.apply(EdgeUpdate(0, 1, 0))
        changed = {s for s in run.sources if run.table[s] != before[s]}
        assert changed <= set(rec.affected)
        assert run.oracle_check() == []

    def test_unaffected_update_repairs_for_free(self):
        g = self._graph(seed=5)
        run = DynamicRun(g, [0], method="bellman-ford", compare_full=True)
        # A shortest path to v runs through u -> v, but source 0's stored
        # tree does not: raising the arc changes no distance from 0, so
        # nothing re-runs.
        dist, parent = run.table[0], run.parents[0]
        u, v, w = max((a, b, w) for a, b, w in g.edges()
                      if parent[b] != a and dist[a] + w == dist[b])
        rec = run.apply(EdgeUpdate(u, v, w + 50))
        assert rec.affected == ()
        assert rec.rounds_to_repair == 0
        assert rec.full_rounds > 0
        assert run.oracle_check() == []

    def test_rounds_to_repair_strictly_cheaper_when_affected_subset(self):
        g = self._graph(seed=1, n=14)
        run = DynamicRun(g, [0, 5, 9], method="bellman-ford",
                         compare_full=True)
        found = False
        for u, v, w in sorted(g.edges()):
            rec = run.apply(EdgeUpdate(u, v, w + 2))
            assert run.oracle_check() == []
            assert rec.rounds_to_repair <= rec.full_rounds
            if 0 < len(rec.affected) < len(run.sources):
                assert rec.rounds_to_repair < rec.full_rounds
                found = True
                break
        assert found, "no partially-affecting update in this graph"

    def test_metrics_accumulate_rounds_to_repair(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3], method="bellman-ford")
        assert run.metrics.rounds_to_repair == 0
        r1 = run.apply(EdgeUpdate(0, 1, 0)).rounds_to_repair
        r2 = run.apply(EdgeUpdate(1, 4, 9)).rounds_to_repair
        assert run.metrics.rounds_to_repair == r1 + r2
        if r1 + r2:
            assert run.metrics.summary()["rounds_to_repair"] == r1 + r2

    def test_registry_publishes_counters(self):
        from repro.obs import MetricsRegistry
        from repro.obs.registry import run_metrics_view

        g = self._graph()
        reg = MetricsRegistry()
        run = DynamicRun(g, [0, 3], method="bellman-ford", registry=reg)
        run.apply(EdgeUpdate(0, 1, 0))
        view = run_metrics_view(reg)
        assert view.rounds_to_repair == run.metrics.rounds_to_repair
        assert view.rounds == run.metrics.rounds

    def test_digest_deterministic_and_history_sensitive(self):
        g = self._graph()
        a = DynamicRun(g, [0, 3], method="bellman-ford")
        b = DynamicRun(g, [0, 3], method="bellman-ford")
        assert a.digest() == b.digest()
        a.apply(EdgeUpdate(0, 1, 0))
        assert a.digest() != b.digest()
        b.apply(EdgeUpdate(0, 1, 0))
        assert a.digest() == b.digest()

    def test_e21_sweep_raises_on_a_wrong_edge_repair(self, monkeypatch):
        """E21's increase/decrease rows assert the Dijkstra check, as
        the crash rows do, instead of recording ``correct=0``."""
        from repro.analysis.sweep import sweep_recovery

        real = DynamicRun.oracle_check

        def one_mismatch_without_faults(self):
            if self.fault_plan is None:
                return [(self.sources[0], 0, 1.0, 2.0)]
            return real(self)

        monkeypatch.setattr(DynamicRun, "oracle_check",
                            one_mismatch_without_faults)
        with pytest.raises(AssertionError, match="wrong distances"):
            sweep_recovery(seeds=(0,), sizes=(10,))


@st.composite
def edge_streams(draw, decreases):
    """``(graph, batches)``: a random graph with many zero-weight arcs
    and a stream of edge-update batches on its live edges.  Every event
    raises or deletes an edge; with ``decreases`` it may also lower
    one or insert a new one."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    n = draw(st.integers(min_value=3, max_value=9))
    directed = draw(st.booleans())
    g = random_graph(n, p=0.4, w_max=5, zero_fraction=0.4,
                     directed=directed, seed=seed)
    live = {(u, v): w for u, v, w in g.edges() if directed or u < v}
    kinds = ["raise", "delete"] + (["lower", "insert"] if decreases else [])
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from(kinds))
            if kind == "insert":
                u, v = draw(st.permutations(range(n)))[:2]
                if not directed:
                    u, v = min(u, v), max(u, v)
                if (u, v) in live:
                    continue
                w = draw(st.integers(min_value=0, max_value=5))
            elif not live:
                continue
            else:
                u, v = draw(st.sampled_from(sorted(live)))
                w = None
                if kind != "delete":
                    step = draw(st.integers(min_value=1, max_value=4))
                    w = (live[u, v] + step if kind == "raise"
                         else max(0, live[u, v] - step))
            batch.append(EdgeUpdate(u, v, w))
            if w is None:
                del live[u, v]
            else:
                live[u, v] = w
        if batch:
            batches.append(batch)
    return g, batches


def updated(graph, batch):
    """*graph* after the edge updates of *batch*."""
    arcs = {(u, v): w for u, v, w in graph.edges()}
    for ev in batch:
        for key in ([(ev.u, ev.v)] if graph.directed
                    else [(ev.u, ev.v), (ev.v, ev.u)]):
            if ev.weight is None:
                arcs.pop(key, None)
            else:
                arcs[key] = ev.weight
    return WeightedDigraph.from_edges(
        graph.n, [(u, v, w) for (u, v), w in arcs.items()],
        directed=graph.directed)


def support_loss(run, batch):
    """The sources some shortest path of which may use an arc the batch
    raises or deletes: ``dist[s][a] + w_old == dist[s][b]``."""
    lost = set()
    for ev in batch:
        arcs = [(ev.u, ev.v)] if run.directed else [(ev.u, ev.v),
                                                     (ev.v, ev.u)]
        for a, b in arcs:
            w = run.graph.weight(a, b)
            for s in run.sources:
                row = run.table[s]
                if w is not None and row[a] < INF and row[a] + w == row[b]:
                    lost.add(s)
    return lost


class TestTreeRule:
    """A raised or deleted arc re-runs only the sources whose stored
    tree uses it; every other source keeps rows that a from-scratch run
    reproduces."""

    @pytest.mark.parametrize("backend", ["reference", "columnar"])
    @pytest.mark.parametrize("method", ["pipelined", "bellman-ford"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=edge_streams(decreases=False))
    def test_worsening_streams_match_from_scratch(self, method, backend,
                                                  stream):
        g, batches = stream
        run = DynamicRun(g, method=method, backend=backend)
        for batch in batches:
            lost = support_loss(run, batch)
            rec = run.apply(*batch)
            assert set(rec.affected) <= lost
            full = k_ssp(run.graph, list(run.sources), method=method,
                         backend=backend)
            assert run.table == {s: full.dist[s] for s in run.sources}
            assert run.parents == {s: full.parent[s] for s in run.sources}

    @pytest.mark.parametrize("method", ["pipelined", "bellman-ford",
                                        "blocker", "auto"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=edge_streams(decreases=True))
    def test_mixed_streams_keep_trees(self, method, stream):
        """With decreases the stored trees stay shortest-path trees, but
        not always a from-scratch run's: a lowered arc that only ties a
        distance changes no row."""
        g, batches = stream
        run = DynamicRun(g, method=method)
        for batch in batches:
            if (method == "blocker"
                    and not updated(run.graph, batch).is_comm_connected()):
                with pytest.raises(ValueError, match="connected"):
                    run.apply(*batch)
                assert run.oracle_check() == []   # the run kept its rows
                return
            run.apply(*batch)
            assert run.oracle_check() == []
            assert RoutingTable(run.graph, run.table, run.parents).validate(
                raise_on_violation=False) == []


class TestCrashDuringUpdate:
    """The issue's acceptance test: a dynamic run with a crash window in
    the middle of an update batch converges to oracle-correct distances
    on both backends, with bit-identical instrumented digests."""

    def test_crash_during_update_pinned_across_backends(self):
        g = random_graph(12, p=0.35, w_max=6, zero_fraction=0.2, seed=4)
        plan = FaultPlan(
            seed=9, delay_rate=0.15, duplicate_rate=0.1, max_delay=2,
            crashes=(CrashWindow(3, 4, 10, restart_from="checkpoint"),))
        digests = {}
        for backend in ("reference", "columnar"):
            run = DynamicRun(g, [0, 5, 9], fault_plan=plan,
                             checkpoint_every=4, backend=backend,
                             monitor_factory=lambda gr, srcs:
                             recovery_monitor(gr, srcs))
            run.apply(EdgeUpdate(0, 1, 0), EdgeUpdate(2, 6, 9))
            run.apply(NodeLeave(7))
            assert run.oracle_check() == [], f"{backend} diverged"
            assert run.metrics.rounds_to_repair > 0
            digests[backend] = run.digest()
        assert digests["reference"] == digests["columnar"]

    def test_crash_path_names_every_source_a_raised_arc_changes(self):
        """Chaos seed 13's crash path leaves source 4's parent row
        cycling (0 -> 1 -> 0 over zero-weight arcs), so its rows are no
        tree to read a support loss from.  Its rule reads distances: a
        raised arc still re-runs every source whose true row moves."""
        g, sources, plan, batches = build_case(ChaosCase(seed=13))
        run = DynamicRun(g, sources, fault_plan=plan, checkpoint_every=4)
        run.apply(*batches[0])
        for u, v, w in run.graph.edges():
            if not run.directed and u > v:
                continue
            raised = copy.deepcopy(run)
            rec = raised.apply(EdgeUpdate(u, v, w + 1))
            changed = {s for s in sources
                       if dijkstra(raised.graph, s)[0] != run.table[s]}
            assert changed <= set(rec.affected), f"raised ({u},{v})"
            assert raised.oracle_check() == []


class TestChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_case_oracle_clean_and_backend_pinned(self, seed):
        case = ChaosCase(seed=seed, n=8, batches=2, events_per_batch=2)
        ref = run_chaos_case(case, backend="reference")
        col = run_chaos_case(case, backend="columnar")
        assert ref.ok and col.ok
        assert ref.digest_recoverable == col.digest_recoverable
        assert ref.digest_pipelined == col.digest_pipelined

    def test_module_runs_without_runtime_warning(self):
        """``python -m repro.recovery.chaos`` runs one copy of the module:
        importing the package must not import ``.chaos`` first, or runpy
        warns that it executes a second copy as ``__main__``."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.recovery.chaos", "--help"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "chaos campaign" in out.stdout
