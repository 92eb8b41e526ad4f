"""Report generation from campaign results.

One rendering path for every consumer of sweep results:

* :func:`render_experiments_md` -- the full EXPERIMENTS.md document
  (section titles, blurbs, summary lines, markdown tables, ASCII
  charts), previously ad-hoc logic inside
  ``benchmarks/generate_experiments_md.py``; that script now just runs
  the :data:`experiments_md_spec` campaign and calls this.
* :func:`render_campaign_report` -- a self-contained markdown report
  for an arbitrary campaign (cache accounting + per-experiment tables),
  what ``campaign run --report`` / ``campaign report`` write.
* :func:`bench_record` / :func:`save_bench` -- campaign results as
  BENCH rows in the :class:`~repro.obs.store.BenchStore`, so stored
  campaigns feed the same tolerance-compare machinery CI uses.
* :func:`regression_diff` -- a campaign result diffed row-by-row
  against a stored BENCH baseline.

Section metadata lives in :data:`SECTIONS`, keyed by experiment id;
multi-report sweeps (E5 -> E5a/E5b) attach to their base id.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from ..analysis.records import ExperimentReport
from ..obs.store import BenchRecord, BenchStore, RegressionReport
from .runner import CampaignResult
from .spec import CampaignSpec, ExperimentGrid


class Section(NamedTuple):
    """EXPERIMENTS.md metadata for one experiment id."""

    title: str
    blurb: Optional[str] = None


EXPERIMENTS_MD_HEADER = """\
# EXPERIMENTS -- paper-claimed vs measured

Every table below is regenerated by ``pytest benchmarks/ --benchmark-only``
(one benchmark module per experiment id; this file itself is produced by
``python benchmarks/generate_experiments_md.py``).  The paper is a theory
paper, so its "results" are round-complexity bounds; *measured* is the exact
round count of the simulated CONGEST execution and *bound* the paper's
formula (exact-constant bounds) or a calibrated-constant envelope
(asymptotic bounds), as flagged per experiment.  ``ratio = measured /
bound`` -- at or below 1 everywhere means the claim reproduces.

Scope note: absolute round counts at these n are simulator measurements,
not testbed numbers; the claims under reproduction are the *bounds and
shapes* (who wins, how cost scales in W / Delta / k / h, where the
crossover falls), per the reproduction brief in DESIGN.md.

Backend note: every sweep runs on the default columnar engine;
``repro bench <id> --backend reference --jobs N`` runs the same sweeps
on the reference CONGEST simulator and/or across worker processes.
Round counts, messages, and congestion are pinned identical across
backends and job counts (tests/differential.py,
tests/backend_conformance.py, tests/test_sweep_executor.py), so the
tables below do not depend on either flag -- only wall-clock does.
E19, E23, and E24 measure those wall-clock gaps.

"""

#: Experiment id -> EXPERIMENTS.md section header + blurb, in document
#: order.  The titles and blurbs are the document's editorial layer;
#: the tables under them come from the campaign result.
SECTIONS: Dict[str, Section] = {
    "E1": Section(
        "E1 -- Theorem I.1(i): (h,k)-SSP round bound (exact constants)",
        "Every guaranteed output settles within ceil(2*sqrt(Delta*h*k)+h+k) "
        "rounds; *measured* is the last round any node improved an output."),
    "E2": Section(
        "E2 -- Theorem I.1(ii): APSP in 2n*sqrt(Delta)+2n rounds (exact)",
        "S = V, h = n-1; *measured* is the total round count (the cutoff "
        "makes it also the termination round)."),
    "E3": Section(
        "E3 -- Theorem I.1(iii): k-SSP in 2*sqrt(Delta*k*n)+n+k rounds "
        "(exact)"),
    "E4": Section(
        "E4 -- Invariants 1 & 2 of Algorithm 1",
        "Invariant 1 (inserts strictly precede their scheduled round) and "
        "the one-message-per-round property are runtime assertions -- any "
        "violation would abort the sweep.  The table shows Invariant 2's "
        "per-source list occupancy against sqrt(Delta*h/k)+1."),
    "E5": Section(
        "E5 -- Lemma II.15: short-range dilation and congestion (exact)"),
    "E6": Section(
        "E6 -- Figure 1 / Lemma III.4: CSSSP",
        "Row one is the paper's own Figure 1 instance: the plain h-hop DP "
        "assigns t distance 2, whose parent-pointer path is not an h-hop "
        "tree path; the CSSSP collection verifies Definition III.3 and "
        "omits t.  *measured* is construction rounds vs the Theorem I.1 "
        "bound of the 2h-hop run."),
    "E7": Section(
        "E7 -- Section III-B: blocker sets and Algorithm 4 (Lemma III.8, "
        "exact)",
        "The distributed greedy equals the centralized reference on every "
        "instance (asserted in tests); sizes respect the greedy set-cover "
        "bound and every Algorithm 4 wave fits in k+h-1 (+1) rounds."),
    "E8": Section(
        "E8 -- Theorem I.2: Algorithm 3 under bounded weights (asymptotic, "
        "C=12)",
        "h chosen by the Theorem I.2 recipe; the shape claim (rounds grow "
        "~W^(1/4), i.e. far sub-linearly) is asserted in the benchmark."),
    "E9": Section(
        "E9 -- Theorem I.3: Algorithm 3 under bounded distances "
        "(asymptotic, C=14)"),
    "E10": Section(
        "E10 -- Corollary I.4: improvement regime / crossover",
        "On a weighted path (default n=28): the pipelined algorithm beats "
        "the Bellman-Ford baseline while W is moderate and cedes once "
        "Delta ~ nW passes ~n^2/4 -- the corollary's W = n^(1-eps) regime, "
        "measured."),
    "E11": Section(
        "E11 -- Table I (exact APSP): measured head-to-head",
        "Bounds are attached to the Algorithm 1 rows (Theorem I.1); the "
        "other algorithms are the implemented baselines on the same "
        "workloads."),
    "E12": Section(
        "E12 -- Theorem I.5 / Table I (approx): (1+eps)-approx APSP with "
        "zeros",
        "*bound* is this implementation's exact substrate budget "
        "O((n/eps)*log(nW)) (inside the paper's O((n/eps^2) log n) for "
        "eps <= 1); *paper_bound* column shows the paper's formula at "
        "constant 1.  worst_ratio <= 1+eps is the accuracy claim."),
    "E13": Section(
        "E13 -- baselines: [12] unweighted (2n) and positive-weight "
        "(Delta+n)"),
    "E14": Section(
        "E14 -- ablation: key schedule gamma and eviction policy",
        "Only the paper-gamma rows carry a bound (Theorem I.1); the ablated "
        "variants show why the blended key matters (distance-heavy keys "
        "delay completion) and what the eviction budget trades (list size "
        "vs padding)."),
    "E15": Section(
        "E15 -- extension: Gabow scaling (the Section V open problem)",
        "Exact APSP via bit scaling over concurrent short-range instances "
        "with per-source reduced weights; overtakes direct Algorithm 1 once "
        "W is large.  The fifo-compose rows measure the scheduler against "
        "the k*dilation baseline (their 'bound' column)."),
    "E16": Section(
        "E16 -- extension: deterministic vs randomized blocker sets",
        "Greedy Algorithm 3 vs the [13]-style sampled blocker pipeline: "
        "sampling skips the greedy phase's rounds for a log-factor larger "
        "blocker count; both exact."),
    "E17": Section(
        "E17 -- the k-source short-range variant (end of Section II-C)",
        "Joint gamma = sqrt(hk/Delta) schedule: dilation and per-node "
        "congestion against the paper's k-source bounds."),
    "E18": Section(
        "E18 -- resilience: ack/retransmit wrapper under seeded drops",
        "Wrapped Bellman-Ford and short-range converge to exact distances "
        "at every drop rate (asserted); the overhead columns measure the "
        "rounds/messages cost vs the drop-free wrapped run."),
    "E19": Section(
        "E19 -- columnar engine vs reference: wall-clock speedup "
        "(infrastructure)",
        "Theorem I.1's pipelined schedule on weighted path graphs -- one "
        "delivery per round, the pipelined kernel's small-round path -- "
        "timed on both simulator backends with every pair differentially "
        "re-checked (distances, metrics, fault statistics, trace "
        "streams); *measured* is reference seconds / columnar seconds "
        "(best of 3).  Each size is timed bare (hooks=none, the bulk "
        "kernel) and with the full hook set attached (hooks=full: fault "
        "injector + tracer + ring recorder, which the engine runs on its "
        "per-message loop).  Wall-clock numbers are machine-dependent; "
        "CI gates the largest size at >= 2x plain and >= 1.5x "
        "instrumented (benchmarks/gates.py)."),
    "E21": Section(
        "E21 -- recovery: incremental repair vs from-scratch recompute",
        "Single-edge weight updates applied to completed k-source runs "
        "(repro.recovery.DynamicRun): only the affected sources re-run, "
        "*measured* is rounds_to_repair and *bound* the from-scratch "
        "recompute round count on the same updated graph -- every repair "
        "is Dijkstra-checked, and a repair may never cost more rounds "
        "than recomputing (strictly fewer whenever a source is "
        "unaffected; both asserted in the sweep).  The update=crash rows "
        "apply the same edge update while a node crashes mid-repair and "
        "restarts from its periodic checkpoint (delays + duplicates "
        "active); they run on both simulator backends and assert "
        "bit-identical instrumented digests.  CI gates the aggregate "
        "saving (benchmarks/gates.py) and runs the seeded chaos "
        "campaign (python -m repro.recovery.chaos) on top."),
    "E22": Section(
        "E22 -- serving: batched+cached oracle queries vs naive table walks",
        "A seeded Zipf query workload replayed against the distance-oracle "
        "serving layer (repro.serve.DistanceOracle: per-source-partition "
        "RoutingTable shards materialized by the k-source pipeline on the "
        "default engine, LRU route cache, batched same-source "
        "execution).  "
        "The row=serve *measured* is naive seconds / batched+cached "
        "steady-state seconds (the cache warmed by one pass, best of 3), "
        "with batched answers always asserted identical to the naive "
        "baseline's; wall-clock numbers are machine-dependent and CI gates "
        "the largest size at >= 5x (benchmarks/gates.py).  The "
        "row=refresh rows delete a minimum-weight edge and re-serve "
        "through repro.recovery.DynamicRun -- only affected sources "
        "recomputed, only their shards swapped (epoch bump), only their "
        "cache entries invalidated -- with the post-refresh answers "
        "Dijkstra-checked through the cached query path.  The row=build "
        "rows time the shard build on the engine's per-message loop "
        "against the pipelined bulk kernel (*measured* is loop seconds / "
        "kernel seconds, tables asserted bit-equal).  The row=digest "
        "row builds and refreshes the same oracle on both simulator "
        "backends, reference and columnar, and asserts bit-identical "
        "served-table digests."),
    "E23": Section(
        "E23 -- columnar relaxation kernel: bulk-synchronous rounds "
        "(infrastructure)",
        "Single-source Bellman-Ford on random-weight side x side grids "
        "(n = side^2, ~2n edges, wavefronts thousands of nodes wide) timed "
        "on the columnar engine twice: on its per-message loop (the "
        "kernel registry emptied) and on the relaxation kernel -- flat "
        "CSR/column arrays and whole-round scatter-min updates instead "
        "of per-message Envelope objects -- with every timed pair "
        "differentially re-checked (distances, hops, parents, rounds, "
        "messages, words, per-channel and per-node counters); *measured* "
        "is loop seconds / kernel seconds (best of 3), one row per size.  "
        "The baseline is the loop -- itself pinned to the reference -- "
        "so the gap is pure message-path overhead, on top of E19's "
        "scheduler win.  Wall-clock numbers are machine-dependent; CI "
        "gates the largest size at >= 2x (benchmarks/gates.py), and the "
        "registry-parametrized conformance suite "
        "(tests/backend_conformance.py) pins the engine's observables "
        "bit-identical."),
    "E24": Section(
        "E24 -- columnar pipelined kernel: Algorithm 1 as bulk column "
        "passes (infrastructure)",
        "The (h, k)-SSP pipeline itself (run_hk_ssp) on dense directed "
        "random graphs with k spread sources, timed on the columnar "
        "engine's per-message loop (the kernel registry emptied) and on "
        "its pipelined bulk kernel (repro.perf.columnar_pipelined) -- "
        "the Step 1 send schedule as a rank bisection over each node's "
        "own list, Step 2 deliveries as one CSR gather per round with a "
        "vectorized reject pass, and the arrivals it keeps folded "
        "through the program's own Steps 8-13 (PipelinedSSPProgram.fold) "
        "-- with every timed pair differentially re-checked (distances, "
        "source set, Delta, rounds, messages, words, per-channel and "
        "per-node counters); *measured* is loop seconds / kernel seconds "
        "(best of 3), one row per size.  Delta is precomputed once and "
        "passed to both arms, so only the simulators are timed.  "
        "Wall-clock numbers are machine-dependent; CI gates the largest "
        "size at >= 2x (benchmarks/gates.py), and the "
        "registry-parametrized conformance suite "
        "(tests/backend_conformance.py) pins the kernel's observables "
        "bit-identical."),
}


def experiments_md_spec() -> CampaignSpec:
    """The campaign behind EXPERIMENTS.md: every experiment id at the
    document's parameter points (sweep defaults except E1)."""
    entries = [ExperimentGrid("E1", params={"seeds": (0, 1),
                                            "sizes": (10, 14, 18)})]
    entries += [ExperimentGrid(exp) for exp in SECTIONS if exp != "E1"]
    return CampaignSpec("experiments-md", tuple(entries))


def base_experiment(experiment: str) -> str:
    """'E5a' -> 'E5': multi-report sweeps suffix their base id."""
    m = re.match(r"(E\d+)", experiment)
    return m.group(1) if m else experiment


def group_by_section(reports: Iterable[ExperimentReport]
                     ) -> Dict[str, List[ExperimentReport]]:
    """Reports bucketed by base experiment id, input order preserved."""
    grouped: Dict[str, List[ExperimentReport]] = {}
    for rep in reports:
        grouped.setdefault(base_experiment(rep.experiment), []).append(rep)
    return grouped


def report_summary_line(rep: ExperimentReport) -> str:
    ok = "all within bound" if rep.all_within_bound else "VIOLATIONS"
    summary = f"**{len(rep.rows)} measurements, {ok}**"
    if rep.max_ratio is not None:
        summary += f", max ratio {rep.max_ratio:.3f}"
    return summary


def chart_for(experiment: str, rep: ExperimentReport) -> str:
    """Figure-style ASCII charts for the scaling experiments."""
    from ..analysis import xy_chart

    if experiment == "E2":
        measured = [(m.params["n"], m.measured) for m in rep.rows]
        bound = [(m.params["n"], m.bound) for m in rep.rows]
        return xy_chart({"measured": measured, "bound": bound},
                        title="rounds vs n (o = measured, x = bound)",
                        xlabel="n", ylabel="rounds")
    if experiment == "E10":
        pipe = [(m.params["W"], m.measured) for m in rep.rows]
        bf = [(m.params["W"], m.params["bf_rounds"]) for m in rep.rows]
        return xy_chart({"pipelined": pipe, "bellman-ford": bf},
                        title="crossover: rounds vs W on a path "
                              "(o = pipelined, x = bellman-ford)",
                        xlabel="W", ylabel="rounds")
    return ""


def render_experiments_md(reports: Sequence[ExperimentReport], *,
                          elapsed: Optional[float] = None) -> str:
    """The EXPERIMENTS.md document for *reports* (SECTIONS order)."""
    from ..analysis import render_markdown

    grouped = group_by_section(reports)
    parts = [EXPERIMENTS_MD_HEADER]
    for exp, section in SECTIONS.items():
        if exp not in grouped:
            continue
        parts.append(f"## {section.title}\n")
        if section.blurb:
            parts.append(section.blurb + "\n")
        for rep in grouped[exp]:
            parts.append(report_summary_line(rep) + "\n")
            parts.append(render_markdown(rep) + "\n")
            chart = chart_for(rep.experiment, rep)
            if chart:
                parts.append("```\n" + chart + "\n```\n")
    if elapsed is not None:
        parts.append(f"_Generated in {elapsed:.1f}s of simulation._\n")
    return "\n".join(parts)


def render_campaign_report(result: CampaignResult) -> str:
    """Self-contained markdown for one campaign run.

    Rendered entirely from store-decoded reports, so a fully-cached
    re-run produces byte-identical output to the run that computed it.
    """
    from ..analysis import render_markdown

    parts = [f"# Campaign report: {result.spec.name}\n",
             f"{result.total} task(s); cached results in a "
             f"content-addressed store keyed on (code digest, params, "
             f"seed, backend) -- see docs/CAMPAIGNS.md.\n"]
    for rep in result.reports:
        parts.append(f"## {rep.experiment} -- {rep.description}\n")
        parts.append(report_summary_line(rep) + "\n")
        parts.append(render_markdown(rep) + "\n")
    return "\n".join(parts)


def bench_record(result: CampaignResult, name: str, *,
                 created: str = "") -> BenchRecord:
    """The campaign's merged reports as a BENCH record (rows in report
    order), ready for the BenchStore's tolerance compare."""
    return BenchRecord.from_reports(
        name, result.reports, created=created,
        meta={"campaign": result.spec.name, "tasks": result.total})


def save_bench(result: CampaignResult, store_root: Union[str, Path],
               name: str, *, created: str = "") -> Path:
    """Persist the campaign's rows as ``BENCH_<name>.json``."""
    return BenchStore(store_root).save_record(
        bench_record(result, name, created=created))


def regression_diff(result: CampaignResult, baseline: str,
                    store_root: Union[str, Path], *,
                    tolerance: float = 0.1) -> RegressionReport:
    """Diff the campaign's rows against a stored BENCH baseline."""
    store = BenchStore(store_root)
    current = bench_record(result, f"{result.spec.name}-current")
    return store.compare(baseline, current, tolerance=tolerance)


__all__ = [
    "SECTIONS", "Section", "base_experiment", "bench_record", "chart_for",
    "experiments_md_spec", "group_by_section", "regression_diff",
    "render_campaign_report", "render_experiments_md", "report_summary_line",
    "save_bench",
]
