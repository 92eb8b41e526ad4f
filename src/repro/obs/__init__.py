"""Observability subsystem: tracing, metrics registry, profiling, bench store.

The paper's results are round/congestion bounds, so this reproduction
lives or dies on measurement.  This package is the telemetry substrate
the simulator and the benchmark suite publish through:

* :class:`Tracer` -- structured hierarchical spans + bounded per-round
  events with JSONL export (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` -- named counters/gauges/histograms that
  :class:`~repro.congest.network.Network`, the multiplexing scheduler,
  and the ``run_*`` entry points publish into;
  :func:`run_metrics_view` reconstructs a
  :class:`~repro.congest.metrics.RunMetrics` from it
  (:mod:`repro.obs.registry`);
* :class:`ProfileSession` -- opt-in named timers around the profiled hot
  loops plus cProfile capture, with a one-attribute-test no-op fast path
  (:mod:`repro.obs.profiling`);
* :class:`BenchStore` -- persisted benchmark records (``BENCH_*.json``),
  baseline comparison with tolerances, and the regression report CI
  consumes (:mod:`repro.obs.store`);
* :func:`render_dashboard` -- the ``repro obs`` ASCII dashboard
  (:mod:`repro.obs.dashboard`).

Everything here is strictly additive: with no tracer/registry/profile
attached, the simulator takes the identical code path as before
(``tests/test_golden.py`` pins the zero-overhead guarantee).

Exports resolve lazily (PEP 562): the simulator core imports
``repro.obs.profiling`` from module scope, and an eager ``__init__``
would close the circle ``congest -> obs -> analysis -> core -> congest``.
"""

from importlib import import_module

_EXPORTS = {
    "BenchRecord": ".store",
    "BenchStore": ".store",
    "Counter": ".registry",
    "Gauge": ".registry",
    "HOT": ".profiling",
    "Histogram": ".registry",
    "KERNEL_TIMERS": ".profiling",
    "MetricsRegistry": ".registry",
    "ProfileSession": ".profiling",
    "RegressionDelta": ".store",
    "RegressionReport": ".store",
    "Span": ".tracer",
    "TimerStat": ".profiling",
    "Tracer": ".tracer",
    "check_phases": ".dashboard",
    "load_jsonl": ".tracer",
    "phase_rounds": ".dashboard",
    "publish_run_metrics": ".registry",
    "render_dashboard": ".dashboard",
    "run_metrics_view": ".registry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
