"""Closed-form round bounds from the paper, as executable functions.

Every benchmark compares a measured round count against one of these.
Bounds come in two flavours:

* **exact** bounds with explicit constants (Theorem I.1, Lemmas II.14,
  II.15, III.8) -- the measurement must satisfy ``measured <= bound``;
* **asymptotic** bounds (Theorems I.2/I.3, Corollary I.4, Lemma III.2)
  stated with O(.) -- the benchmark checks the *shape* (the measured
  series grows no faster than the bound's scaling, and crossovers fall
  where the corollary places them), not an absolute constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Theorem I.1 -- the pipelined algorithm (exact constants)
# ---------------------------------------------------------------------------

def theorem11_hk_ssp(h: int, k: int, delta: int) -> int:
    """(i): (h, k)-SSP in ``2 sqrt(Delta h k) + h + k`` rounds (also
    Lemma II.14's cutoff round, :func:`repro.core.pipelined.run_hk_ssp`)."""
    return math.ceil(2 * math.sqrt(delta * h * k) + h + k)


def theorem11_apsp(n: int, delta: int) -> int:
    """(ii): APSP in ``2 n sqrt(Delta) + 2 n`` rounds (h = k = n)."""
    return math.ceil(2 * n * math.sqrt(delta) + 2 * n)


def theorem11_k_ssp(n: int, k: int, delta: int) -> int:
    """(iii): k-SSP in ``2 sqrt(Delta k n) + n + k`` rounds (h = n)."""
    return math.ceil(2 * math.sqrt(delta * k * n) + n + k)


# ---------------------------------------------------------------------------
# Lemma II.15 -- short-range algorithm (exact constants)
# ---------------------------------------------------------------------------

def short_range_dilation(h: int, delta: int, k: int = 1) -> int:
    """Rounds of Algorithm 2 for k sources: ``ceil(Delta gamma + h)`` with
    ``gamma = sqrt(h k / Delta)``, i.e. ``sqrt(Delta h k) + h``."""
    return math.ceil(math.sqrt(delta * h * k) + h)


def short_range_congestion(h: int, delta: int, k: int = 1) -> int:
    """Messages per node of Algorithm 2: at most ``sqrt(h k)``
    per source set (Section II-C; ``sqrt(h)`` for a single source with
    Delta <= n-1; in general ``d* gamma`` takes ``<= Delta gamma``
    distinct values and ``l*`` only increases between sends)."""
    return math.ceil(math.sqrt(h * k)) + 1


# ---------------------------------------------------------------------------
# Lemma III.2 / Theorems I.2-I.3 -- Algorithm 3 (asymptotic)
# ---------------------------------------------------------------------------

def lemma32_kssp(n: int, k: int, h: int, delta: int) -> float:
    """Lemma III.2's two-term bound (up to constants):
    ``n^2 log n / h + sqrt(Delta h k)``."""
    return (n * n * math.log(max(2, n))) / h + math.sqrt(delta * h * k)


def optimal_h_distance_bounded(n: int, k: int, delta: int) -> int:
    """The h that balances Lemma III.2's terms for Theorem I.3:
    ``h = n^{4/3} log^{2/3} n / (Delta k)^{1/3}`` (clamped to [1, n])."""
    logn = math.log(max(2, n))
    h = (n ** (4.0 / 3.0)) * (logn ** (2.0 / 3.0)) / max(1.0, (delta * k) ** (1.0 / 3.0))
    return max(1, min(n, int(round(h))))


def optimal_h_weight_bounded(n: int, k: int, w_max: int) -> int:
    """The h balancing Lemma III.2 when only ``W`` is known (Theorem I.2):
    ``h = n log^{1/2} n / (W^{1/2} k^{1/4})`` -- from
    ``n^2 log n / h = h sqrt(W k)`` with ``Delta <= h W``."""
    logn = math.log(max(2, n))
    h = n * math.sqrt(logn) / max(1.0, math.sqrt(max(1, w_max)) * (max(1, k) ** 0.25))
    return max(1, min(n, int(round(h))))


def theorem12_apsp(n: int, w_max: int) -> float:
    """Theorem I.2(i): ``O(W^{1/4} n^{5/4} log^{1/2} n)`` (constant 1)."""
    return (max(1, w_max) ** 0.25) * (n ** 1.25) * math.sqrt(math.log(max(2, n)))


def theorem12_kssp(n: int, k: int, w_max: int) -> float:
    """Theorem I.2(ii): ``O(W^{1/4} n k^{1/4} log^{1/2} n)``."""
    return (max(1, w_max) ** 0.25) * n * (max(1, k) ** 0.25) * math.sqrt(math.log(max(2, n)))


def theorem13_apsp(n: int, delta: int) -> float:
    """Theorem I.3(i): ``O(n (Delta log^2 n)^{1/3})``."""
    return n * ((max(1, delta) * math.log(max(2, n)) ** 2) ** (1.0 / 3.0))


def theorem13_kssp(n: int, k: int, delta: int) -> float:
    """Theorem I.3(ii): ``O((Delta k n^2 log^2 n)^{1/3})``."""
    return (max(1, delta) * max(1, k) * n * n * math.log(max(2, n)) ** 2) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# Corollary I.4 -- improvement regimes over the n^{3/2} baseline
# ---------------------------------------------------------------------------

def corollary14_weight_regime(n: int, eps: float) -> float:
    """(i): with ``W = n^{1-eps}``, APSP in
    ``O(n^{3/2 - eps/4} log^{1/2} n)`` rounds."""
    return (n ** (1.5 - eps / 4.0)) * math.sqrt(math.log(max(2, n)))


def corollary14_distance_regime(n: int, eps: float) -> float:
    """(ii): with ``Delta = n^{3/2 - eps}``, APSP in
    ``O(n^{3/2 - eps/3} log^{2/3} n)`` rounds."""
    return (n ** (1.5 - eps / 3.0)) * (math.log(max(2, n)) ** (2.0 / 3.0))


def agarwal18_baseline(n: int) -> float:
    """The deterministic ``O(n^{3/2})`` bound of [3] that Theorems I.2/I.3
    improve on (Table I row 'Agarwal et al.'; constant 1)."""
    return n ** 1.5


# ---------------------------------------------------------------------------
# Section III-B -- blocker set
# ---------------------------------------------------------------------------

def blocker_set_size_bound(n: int, h: int, paths: int = None) -> float:
    """Greedy blocker set size: ``O((n log n) / h)`` for n-source h-hop
    trees ([3], Definition III.1 discussion).  With the path count given,
    the sharper greedy set-cover bound ``(n/h) ln(paths) + 1`` is used."""
    if paths is not None and paths > 1:
        return (n / h) * math.log(paths) + 1
    return (n / h) * math.log(max(2, n)) * 2 + 1


def lemma38_descendant_update(k: int, h: int) -> int:
    """Lemma III.8: Algorithm 4 finishes in ``k + h - 1`` rounds."""
    return k + h - 1


# ---------------------------------------------------------------------------
# Section IV -- approximate APSP
# ---------------------------------------------------------------------------

def theorem15_approx_apsp(n: int, eps: float) -> float:
    """Theorem I.5: ``O((n / eps^2) log n)`` rounds (constant 1)."""
    return n / (eps * eps) * math.log(max(2, n))


def approx_apsp_substrate_bound(n: int, eps: float, w_max: int) -> int:
    """Exact round budget of *this library's* Theorem I.5 implementation
    (see :mod:`repro.core.approx`):

    * zero-reachability: <= 2n rounds;
    * one capped positive-pipelined APSP per scale, each <=
      ``cap + n + 1`` rounds with ``cap = ceil(6n/eps) + n``;
    * ``ceil(log2(n^3 W + n))`` scales.

    This is ``O((n/eps) log(nW))``, inside the paper's
    ``O((n/eps^2) log n)`` for ``eps <= 1`` and poly(n) weights.
    """
    cap = math.ceil(6 * n / eps) + n
    per_scale = cap + n + 1
    scales = max(1, math.ceil(math.log2(max(2, n ** 3 * max(1, w_max) + n))))
    return 2 * n + scales * per_scale


# ---------------------------------------------------------------------------
# Baseline bounds used in Table I comparisons
# ---------------------------------------------------------------------------

def bellman_ford_apsp_bound(n: int, hop_diameter: int) -> int:
    """Round bound of the sequential-per-source distributed Bellman-Ford
    APSP baseline: n sources, each converging within hop_diameter
    rounds."""
    return n * max(1, hop_diameter)


def unweighted_pipelined_bound(n: int) -> int:
    """[12]'s bound: unweighted APSP in ``2 n`` rounds."""
    return 2 * n


def positive_pipelined_bound(n: int, delta: int) -> int:
    """Positive-integer-weight generalisation of [12]: ``Delta + n``
    rounds for distances bounded by Delta."""
    return delta + n


@dataclass(frozen=True)
class BoundCheck:
    """A measured-vs-bound record used by the benchmark tables."""

    label: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound

    @property
    def ratio(self) -> float:
        return self.measured / self.bound if self.bound else float("inf")

    def __str__(self) -> str:
        flag = "OK " if self.ok else "FAIL"
        return f"[{flag}] {self.label}: measured={self.measured:g} bound={self.bound:g} ratio={self.ratio:.3f}"
