"""Contract tests for the columnar engine's per-message loop beyond the
differential harness: constructor parity, hook support, resumption,
registry publishing -- and backend selection semantics."""

import os
import subprocess
import sys

import pytest

from repro.congest import Network, RoundLimitExceeded
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, Tracer
from repro.perf import (
    ColumnarNetwork,
    get_default_backend,
    make_network,
    use_backend,
)
from repro.perf.fast_network import FastNetwork
from test_congest_network import Pinger, Relay, line


@pytest.fixture
def clean_backend(monkeypatch):
    """Run with no ambient backend chosen and no REPRO_BACKEND set, so
    selection-precedence assertions hold even when the surrounding test
    process exports REPRO_BACKEND=reference (the CI matrix does exactly
    that).  monkeypatch restores both afterwards."""
    from repro.perf import backends
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(backends, "_default_backend", None)


class TestConstructorParity:
    """Invalid arguments produce the *same* error text on both backends,
    so swapping backends never changes what a user debugging a bad call
    sees."""

    @pytest.mark.parametrize("kwargs", [
        {"max_message_words": 0},
        {"channel_capacity": 0},
        {"record_window": -1},
    ])
    def test_same_validation_message(self, kwargs):
        with pytest.raises(ValueError) as ref_exc:
            Network(line(3), Relay, **kwargs)
        with pytest.raises(ValueError) as fast_exc:
            FastNetwork(line(3), Relay, **kwargs)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_same_nodeless_graph_message(self):
        class NoNodes:
            n = 0

        with pytest.raises(ValueError) as ref_exc:
            Network(NoNodes(), Relay)
        with pytest.raises(ValueError) as fast_exc:
            FastNetwork(NoNodes(), Relay)
        assert str(fast_exc.value) == str(ref_exc.value)


class TestHookSupport:
    """Every Network hook is honored by the per-message loop (deep parity is
    pinned by tests/differential.py; these are the direct contract
    checks that each hook actually *fires*)."""

    def test_fault_plan_injects(self):
        plan = FaultPlan(seed=7, drop_rate=1.0)
        net = FastNetwork(line(3), Pinger, fault_plan=plan)
        m = net.run(max_rounds=10)
        assert m.faults.get("drops", 0) == 1
        assert net.fault_injector.stats.drops == 1

    def test_trivial_fault_plan_accepted(self):
        """An all-zero plan injects nothing -- the reference backend
        treats it as the zero-overhead path and so does the loop."""
        net = FastNetwork(line(3), Pinger, fault_plan=FaultPlan())
        m = net.run(max_rounds=10)
        assert m.messages == 1

    def test_tracer_sees_sends_and_rounds(self):
        tracer = Tracer()
        FastNetwork(line(4), Relay, tracer=tracer).run(max_rounds=20)
        assert len(tracer.of_kind("net.send")) == 3
        assert tracer.of_kind("net.round")  # one per executed round

    def test_monitor_called_same_rounds_same_touched(self):
        def capture(into):
            class CapturingMonitor:
                def after_round(self, network, r, touched):
                    into.append((r, sorted(touched)))
            return CapturingMonitor()

        fast_calls, ref_calls = [], []
        FastNetwork(line(4), Relay, monitor=capture(fast_calls)).run(
            max_rounds=20)
        Network(line(4), Relay, monitor=capture(ref_calls)).run(max_rounds=20)
        assert fast_calls == ref_calls
        assert fast_calls  # the hook actually fired

    def test_record_window_feeds_post_mortem(self):
        net = FastNetwork(line(6), Relay, record_window=2)
        with pytest.raises(RoundLimitExceeded) as exc:
            net.run(max_rounds=2)
        pm = exc.value.post_mortem
        assert pm.record_window == 2
        assert pm.recent_events  # the ring recorder captured the sends
        assert "node" in pm.render()

    def test_all_hooks_at_once_construct_and_run(self):
        """No hook combination is refused: a fault plan, a tracer and a
        ring recorder attached together construct and run."""
        net = FastNetwork(line(3), Pinger,
                          fault_plan=FaultPlan(seed=1, drop_rate=0.5),
                          monitor=None, tracer=Tracer(), record_window=3)
        net.run(max_rounds=10)


class TestResumption:
    """Same absolute-``max_rounds`` re-entry contract as the reference
    backend (satellite: RoundLimitExceeded resumption)."""

    def test_interrupted_run_resumes_to_same_result(self):
        n = 6
        net = FastNetwork(line(n), Relay)
        with pytest.raises(RoundLimitExceeded) as exc:
            net.run(max_rounds=2)  # token is only 2 hops in
        assert exc.value.post_mortem is not None
        net.run(max_rounds=20)     # absolute budget; resumes at round 3
        fresh = Network(line(n), Relay)
        fm = fresh.run(max_rounds=20)
        assert [net.output_of(v) for v in range(n)] == \
               [fresh.output_of(v) for v in range(n)]
        assert (net.metrics.rounds, net.metrics.messages,
                net.metrics.active_rounds, net.metrics.skipped_rounds) == \
               (fm.rounds, fm.messages, fm.active_rounds, fm.skipped_rounds)

    def test_interrupted_fault_run_keeps_in_flight_envelopes(self):
        """Delayed envelopes survive a RoundLimitExceeded and deliver on
        resumption, exactly as on the reference backend."""
        plan = FaultPlan(seed=3, delay_rate=1.0, max_delay=5)
        nets = []
        for cls in (Network, FastNetwork):
            net = cls(line(4), Relay, fault_plan=plan)
            with pytest.raises(RoundLimitExceeded):
                net.run(max_rounds=1)
            assert net.fault_injector.in_flight_snapshot()
            net.run(max_rounds=60)
            nets.append(net)
        ref, fast = nets
        assert fast.outputs() == ref.outputs()
        assert fast.metrics.faults == ref.metrics.faults
        assert (fast.metrics.rounds, fast.metrics.active_rounds) == \
               (ref.metrics.rounds, ref.metrics.active_rounds)

    def test_quiescent_rerun_is_noop(self):
        net = FastNetwork(line(4), Relay)
        m = net.run(max_rounds=100)
        m2 = net.run(max_rounds=100)
        assert m2 is m
        assert (m2.rounds, m2.messages) == (3, 3)

    def test_programs_started_exactly_once(self):
        starts = []

        class CountingPinger(Pinger):
            def on_start(self, ctx):
                starts.append(ctx.node)

        net = FastNetwork(line(3), CountingPinger)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=0)
        net.run(max_rounds=10)
        net.run(max_rounds=10)
        assert starts == [0, 1, 2]


class TestRegistrySupport:
    def test_publishes_run_metrics(self):
        reg = MetricsRegistry()
        net = FastNetwork(line(4), Relay, registry=reg)
        m = net.run(max_rounds=20)
        assert reg.counter_total("congest.messages") == m.messages
        assert reg.counter_total("congest.rounds") == m.rounds
        # per-round wall-clock lands in the same histogram the
        # reference backend uses, one observation per executed round
        ref_reg = MetricsRegistry()
        Network(line(4), Relay, registry=ref_reg).run(max_rounds=20)
        (ref_hist,) = ref_reg.histograms("congest.round_wall_s")
        (fast_hist,) = reg.histograms("congest.round_wall_s")
        assert fast_hist.count == ref_hist.count

    def test_republish_is_delta_based(self):
        reg = MetricsRegistry()
        net = FastNetwork(line(4), Relay, registry=reg)
        m = net.run(max_rounds=20)
        net.run(max_rounds=20)  # quiescent re-run must not double-count
        assert reg.counter_total("congest.messages") == m.messages

    def test_matches_reference_registry_numbers(self):
        ref_reg, fast_reg = MetricsRegistry(), MetricsRegistry()
        Network(line(5), Relay, registry=ref_reg).run(max_rounds=20)
        FastNetwork(line(5), Relay, registry=fast_reg).run(max_rounds=20)
        ref_snap = ref_reg.snapshot()
        fast_snap = fast_reg.snapshot()
        # wall-clock histograms differ in timings by construction; the
        # counts must agree
        for snap in (ref_snap, fast_snap):
            snap.get("histograms", snap).pop("congest.round_wall_s", None)
        assert fast_snap == ref_snap


class TestBackendSelection:
    def test_default_is_columnar(self, clean_backend):
        assert get_default_backend() == "columnar"
        assert isinstance(make_network(line(3), Relay), ColumnarNetwork)

    def test_explicit_reference(self):
        net = make_network(line(3), Relay, backend="reference")
        assert type(net) is Network

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            make_network(line(3), Relay, backend="turbo")

    def test_explicit_columnar_with_hooks_constructs_columnar(self):
        """Hooks do not influence selection: an explicit columnar
        request with a tracer gets a ColumnarNetwork, not an error."""
        net = make_network(line(3), Relay, backend="columnar",
                           tracer=Tracer())
        assert isinstance(net, ColumnarNetwork)

    def test_ambient_columnar_with_hooks_stays_columnar(self):
        """Hooks never send an ambient call to the reference backend."""
        with use_backend("columnar"):
            net = make_network(line(3), Relay, tracer=Tracer(),
                               fault_plan=FaultPlan(seed=1, drop_rate=0.2),
                               record_window=2)
        assert isinstance(net, ColumnarNetwork)

    def test_ambient_reference_sticks(self, clean_backend):
        with use_backend("reference"):
            assert type(make_network(line(3), Relay)) is Network
        assert get_default_backend() == "columnar"

    def test_use_backend_none_is_noop(self, clean_backend):
        with use_backend(None):
            assert get_default_backend() == "columnar"

    def test_use_backend_restores_unresolved_env(self, monkeypatch):
        """use_backend() inside a not-yet-resolved REPRO_BACKEND process
        restores the *unresolved* state, so the env var still wins
        afterwards."""
        from repro.perf import backends
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        monkeypatch.setattr(backends, "_default_backend", None)
        with use_backend("columnar"):
            assert get_default_backend() == "columnar"
        assert get_default_backend() == "reference"


class TestEnvSelection:
    """REPRO_BACKEND picks the ambient default, validated lazily at the
    first get_default_backend()/make_network() call: a typo must not
    make the package unimportable, but must fail loudly -- naming the
    variable and the bad value -- the moment a simulation is requested."""

    def _run(self, value, code):
        env = dict(os.environ, REPRO_BACKEND=value)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        return subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, capture_output=True, text=True, timeout=120)

    def test_env_reference(self):
        proc = self._run("reference",
                         "from repro.perf import get_default_backend; "
                         "print(get_default_backend())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "reference"

    def test_env_typo_import_survives(self):
        """Importing the package (and building the CLI parser -- what
        ``repro --help`` does) must not touch REPRO_BACKEND."""
        proc = self._run("fasst",
                         "import repro, repro.perf, repro.cli; "
                         "repro.cli.build_parser(); print('ok')")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_env_typo_fails_loud_on_first_use(self):
        proc = self._run("fasst",
                         "from repro.perf import get_default_backend; "
                         "get_default_backend()")
        assert proc.returncode != 0
        assert "REPRO_BACKEND" in proc.stderr
        assert "fasst" in proc.stderr

    def test_env_typo_cli_help_ok_run_fails_clean(self):
        help_proc = self._run("fasst", "import repro.cli, sys; "
                              "sys.exit(repro.cli.main(['--help']))")
        # argparse --help exits 0 after printing usage
        assert help_proc.returncode == 0, help_proc.stderr
        assert "usage" in help_proc.stdout.lower()
