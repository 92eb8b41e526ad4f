"""Weighted directed graphs with non-negative integer weights.

This is the input object for every algorithm in the library.  The paper's
setting (Section I-B):

* ``n`` nodes with ids ``0 .. n-1`` (the paper uses ``1 .. poly(n)``; a
  dense relabelling changes nothing),
* directed or undirected edges with non-negative *integer* weights
  representable in ``B = O(log n)`` bits -- **zero weights allowed**, the
  whole point of the paper,
* for directed graphs, communication channels are bidirectional: the
  communication topology is the underlying undirected graph ``U_G``.

Undirected graphs are represented as symmetric digraphs (both directions
present with equal weight), matching the paper's "we will assume w.l.o.g.
that G is directed".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class GraphError(ValueError):
    """Invalid graph construction (negative weight, bad endpoint, ...)."""


def check_weight(u: int, v: int, w: object) -> None:
    """Refuse an edge weight the graph model does not accept: it must be
    an ``int`` (not a ``bool``) and non-negative."""
    if not isinstance(w, int) or isinstance(w, bool):
        raise GraphError(f"edge weight must be an int, got {w!r}")
    if w < 0:
        raise GraphError(
            f"negative edge weight {w} on ({u},{v}): the paper's "
            "algorithms require non-negative integer weights")


class WeightedDigraph:
    """An immutable-after-freeze weighted digraph.

    Build with :meth:`add_edge` (or the :meth:`from_edges` /
    :meth:`undirected_from_edges` constructors); the adjacency lists are
    frozen into tuples on first query for cheap repeated iteration in the
    simulator's inner loop.
    """

    def __init__(self, n: int, *, directed: bool = True) -> None:
        if n <= 0:
            raise GraphError(f"graph needs at least one node, got n={n}")
        self.n = n
        self.directed = directed
        self._w: Dict[Tuple[int, int], int] = {}
        self._out: Optional[List[Tuple[Tuple[int, int], ...]]] = None
        self._in: Optional[List[Tuple[Tuple[int, int], ...]]] = None
        self._comm: Optional[List[Tuple[int, ...]]] = None

    # -- construction ---------------------------------------------------

    def add_edge(self, u: int, v: int, w: int) -> None:
        """Add edge ``u -> v`` of weight *w* (and ``v -> u`` if the graph
        is undirected).  Parallel edges collapse to the minimum weight;
        self-loops are rejected (they never lie on a shortest path with
        non-negative weights and would only confuse hop counting)."""
        if self._out is not None:
            raise GraphError("graph is frozen; build a new one instead")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"self-loop at node {u} rejected")
        check_weight(u, v, w)
        key = (u, v)
        old = self._w.get(key)
        if old is None or w < old:
            self._w[key] = w
        if not self.directed:
            key = (v, u)
            old = self._w.get(key)
            if old is None or w < old:
                self._w[key] = w

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int, int]],
                   *, directed: bool = True) -> "WeightedDigraph":
        g = cls(n, directed=directed)
        for u, v, w in edges:
            g.add_edge(u, v, w)
        return g

    @classmethod
    def undirected_from_edges(cls, n: int,
                              edges: Iterable[Tuple[int, int, int]]) -> "WeightedDigraph":
        return cls.from_edges(n, edges, directed=False)

    # -- freezing ---------------------------------------------------------

    def _freeze(self) -> None:
        if self._out is not None:
            return
        out: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        in_: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        comm: List[set] = [set() for _ in range(self.n)]
        for (u, v), w in sorted(self._w.items()):
            out[u].append((v, w))
            in_[v].append((u, w))
            comm[u].add(v)
            comm[v].add(u)
        self._out = [tuple(a) for a in out]
        self._in = [tuple(a) for a in in_]
        self._comm = [tuple(sorted(s)) for s in comm]

    # -- queries ----------------------------------------------------------

    def out_edges(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """Directed edges leaving *v*, as ``(neighbour, weight)`` pairs."""
        self._freeze()
        return self._out[v]  # type: ignore[index]

    def in_edges(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """Directed edges entering *v*, as ``(neighbour, weight)`` pairs."""
        self._freeze()
        return self._in[v]  # type: ignore[index]

    def comm_neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbours of *v* in the underlying undirected graph ``U_G``."""
        self._freeze()
        return self._comm[v]  # type: ignore[index]

    def weight(self, u: int, v: int) -> Optional[int]:
        """Weight of directed edge ``u -> v`` or ``None``."""
        return self._w.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._w

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """All directed edges as ``(u, v, w)``, sorted."""
        for (u, v), w in sorted(self._w.items()):
            yield u, v, w

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._w)

    @property
    def max_weight(self) -> int:
        """``W`` -- the maximum edge weight (0 for an edgeless graph)."""
        return max(self._w.values(), default=0)

    def reverse(self) -> "WeightedDigraph":
        """The graph with every directed edge reversed (same channels;
        reversing an undirected graph returns an equal undirected graph)."""
        g = WeightedDigraph(self.n, directed=self.directed)
        for (u, v), w in self._w.items():
            if g.weight(v, u) is None or w < g.weight(v, u):
                g.add_edge(v, u, w)
        return g

    def underlying_undirected(self) -> "WeightedDigraph":
        """The underlying undirected (symmetrized) graph ``U_G``; parallel
        antiparallel edges collapse to the minimum weight."""
        g = WeightedDigraph(self.n, directed=False)
        for (u, v), w in self._w.items():
            g.add_edge(u, v, w)
        return g

    def is_comm_connected(self) -> bool:
        """Whether the communication graph ``U_G`` is connected.

        CONGEST algorithms can only ever produce output on the connected
        component of the communication network; generators in this library
        produce connected communication graphs.
        """
        self._freeze()
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for x in self._comm[u]:  # type: ignore[index]
                if not seen[x]:
                    seen[x] = True
                    count += 1
                    stack.append(x)
        return count == self.n

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"WeightedDigraph(n={self.n}, m={self.m}, {kind}, W={self.max_weight})"
