"""Key schedule for the pipelined algorithm (paper, Section II-A).

The innovation of Algorithm 1 is that an entry's *key* is not its weighted
distance ``d`` but

    kappa = d * gamma + l,      gamma = sqrt(h * k / Delta)

a blend of the weighted distance and the hop length ``l``.  The hop
component restores the property that breaks with zero-weight edges (a
predecessor's key is strictly smaller: crossing an edge adds
``w * gamma + 1 >= 1``), while the distance component keeps keys of
shortest-path entries small (``kappa <= Delta * gamma + h``), which is
what the round bound of Lemma II.14 needs.

Numerical representation
------------------------
Keys are IEEE doubles.  ``kappa`` is always recomputed as ``d * gamma + l``
from the integer pair ``(d, l)`` -- never accumulated hop by hop -- so two
nodes deriving an entry for the same path compute bit-identical keys and
the list order ``(kappa, d, x)`` is globally consistent.  ``ceil_key``
guards the one FP hazard: when ``gamma`` is rational and ``kappa + pos``
is mathematically an integer, the double is exact and ``math.ceil`` is
too; for irrational ``gamma`` the result is bounded away from integers by
far more than the 1-ulp rounding of a single multiply-add.
"""

from __future__ import annotations

import math


def gamma_for(h: int, k: int, delta: int) -> float:
    """The paper's ``gamma = sqrt(h k / Delta)``.

    Degenerate case ``Delta == 0``: every guaranteed shortest-path
    distance is 0 and the paper's gamma diverges.  We use the finite
    stand-in ``h * k + h + 1``: any entry with ``d >= 1`` then has
    ``kappa >= gamma`` beyond the Lemma II.14 cutoff ``h + k`` (it is
    never sent, exactly as a diverging gamma prescribes), the per-source
    budget ``floor(h / gamma) + 1`` collapses to 1, and shortest-path
    entries (``kappa = l <= h``, position <= k) still arrive within
    ``h + k`` rounds.  ``h`` and ``k`` must be >= 1 for a meaningful
    instance.
    """
    if h < 1:
        raise ValueError(f"hop bound h must be >= 1, got {h}")
    if k < 1:
        raise ValueError(f"source count k must be >= 1, got {k}")
    if delta < 0:
        raise ValueError(f"distance bound Delta must be >= 0, got {delta}")
    if delta == 0:
        return float(h * k + h + 1)
    return math.sqrt(h * k / delta)


def key_of(d: int, l: int, gamma: float) -> float:
    """``kappa = d * gamma + l`` (recomputed fresh, see module docstring)."""
    return d * gamma + l


def ceil_key(value: float) -> int:
    """``ceil(kappa + pos)`` as used by the send schedule."""
    return math.ceil(value)


def send_round(kappa: float, pos: int) -> int:
    """The round in which an entry at position *pos* is scheduled:
    ``ceil(kappa + pos)`` (Step 1 of Algorithm 1)."""
    return ceil_key(kappa + pos)


def first_due(keys, r: int, *, lo: int = 0, pos_offset: int = 1) -> int:
    """Index of the first entry of the sorted ``(kappa, d, x)`` key
    column whose scheduled round ``ceil(kappa_i + i + pos_offset)``
    exceeds round *r*, searching from index *lo* (every entry below
    *lo* must be due at or before *r*); ``len(keys)`` when none is.

    The schedule is strictly increasing along the column (sorted keys,
    consecutive positions -- Lemma II.2), so this is an O(log n)
    bisection and the entry found is also the unique one that fires in
    its round.  For an integer *r*, ``ceil(y) <= r`` iff ``y <= r``, so
    the ceil is left out of the loop.
    """
    hi = len(keys)
    while lo < hi:
        mid = (lo + hi) >> 1
        if keys[mid][0] + mid + pos_offset <= r:
            lo = mid + 1
        else:
            hi = mid
    return lo


def max_entries_per_source(h: int, k: int, delta: int) -> float:
    """Invariant 2's bound on entries per source per list:
    ``h / gamma + 1 = sqrt(Delta h / k) + 1`` (Lemma II.11)."""
    g = gamma_for(h, k, delta)
    return h / g + 1


def theoretical_key_bound(h: int, k: int, delta: int) -> float:
    """Upper bound on any shortest-path entry's key:
    ``Delta * gamma + h`` (proof of Lemma II.14)."""
    return delta * gamma_for(h, k, delta) + h
