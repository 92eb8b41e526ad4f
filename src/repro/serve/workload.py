"""Seeded query workloads: what millions of users would ask the oracle.

Production distance-oracle traffic is heavily skewed -- a few popular
origins (city centers, datacenter gateways) and destinations dominate,
with a long tail of rare pairs.  :func:`generate_workload` models that
with independent Zipf-ranked source and target draws: node popularity
ranks are a seeded permutation of the vertex set, and rank ``i`` is
drawn with probability proportional to ``1 / (i + 1) ** skew``.  The
result is fully deterministic given ``(n, seed, skew, ...)``, so
benchmarks, the E22 sweep, and the CLI all replay byte-identical
traffic.

The skew is what makes caching pay: with ``skew ~ 1.2`` on a few
hundred nodes, a few thousand distinct pairs cover the overwhelming
majority of millions of queries -- the regime the ``>= 5x``
batched+cached serving gate (E22 in benchmarks/gates.py) measures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Query:
    """One point-to-point question: distance or full path from u to v."""

    u: int
    v: int
    kind: str = "distance"  # "distance" | "path"

    def __post_init__(self) -> None:
        if self.kind not in ("distance", "path"):
            raise ValueError(
                f"query kind must be 'distance' or 'path', got "
                f"{self.kind!r}")


@dataclass(frozen=True)
class Workload:
    """A replayable query stream plus the parameters that produced it."""

    queries: Tuple[Query, ...]
    n: int
    seed: int
    skew: float

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def distinct_pairs(self) -> int:
        return len({(q.u, q.v) for q in self.queries})

    def batches(self, size: int) -> Iterator[Tuple[Query, ...]]:
        """The stream in arrival-order batches of at most *size*."""
        check_batch_size(size)
        it = iter(self.queries)
        while True:
            chunk = tuple(itertools.islice(it, size))
            if not chunk:
                return
            yield chunk


def check_batch_size(size: int) -> None:
    """Refuse a batch size below 1 (``ValueError``)."""
    if size < 1:
        raise ValueError(f"batch_size must be >= 1, got {size}")


def _zipf_picker(rng: random.Random, population: Sequence[int],
                 skew: float) -> Callable[[int], List[int]]:
    """A closure drawing from *population* with Zipf(rank) weights over
    a seeded popularity permutation."""
    ranked = list(population)
    rng.shuffle(ranked)
    weights = [1.0 / (i + 1) ** skew for i in range(len(ranked))]
    cum = list(itertools.accumulate(weights))

    def pick(count: int) -> List[int]:
        return rng.choices(ranked, cum_weights=cum, k=count)

    return pick


def generate_workload(n: int, num_queries: int, *, seed: int = 0,
                      skew: float = 1.2,
                      sources: Optional[Sequence[int]] = None,
                      path_fraction: float = 0.5) -> Workload:
    """A seeded Zipf-skewed stream of ``num_queries`` queries over
    ``n`` nodes.

    ``sources`` restricts query origins (default: every node --
    matching an APSP oracle); targets range over all nodes.
    ``path_fraction`` of the queries ask for the full path, the rest
    for the distance only.  Self-queries are kept (real traffic asks
    them; the oracle answers distance 0) but re-drawn once to keep them
    rare.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if num_queries < 0:
        raise ValueError(f"need num_queries >= 0, got {num_queries}")
    if not (0.0 <= path_fraction <= 1.0):
        raise ValueError(
            f"path_fraction must be in [0, 1], got {path_fraction}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    src_pop = list(sources) if sources is not None else list(range(n))
    if not src_pop:
        raise ValueError("sources must be non-empty")
    for s in src_pop:
        if not (0 <= s < n):
            raise ValueError(f"source {s} out of range for n={n}")
    rng = random.Random(seed)
    pick_src = _zipf_picker(rng, src_pop, skew)
    pick_dst = _zipf_picker(rng, range(n), skew)
    us = pick_src(num_queries)
    vs = pick_dst(num_queries)
    queries = []
    for u, v in zip(us, vs):
        if u == v:
            v = pick_dst(1)[0]  # re-draw once; keep if still equal
        kind = "path" if rng.random() < path_fraction else "distance"
        queries.append(Query(u, v, kind))
    return Workload(tuple(queries), n, seed, skew)
