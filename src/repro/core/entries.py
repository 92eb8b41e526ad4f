"""List entries for the pipelined algorithm (paper Table II / Section II-A).

An entry ``Z = (kappa, d, l, x)`` records one candidate path from source
``x`` to the node holding the entry: weighted distance ``d``, hop length
``l``, key ``kappa = d * gamma + l``.  The node also tracks, per entry:

* ``flag_sp`` -- the paper's ``Z.flag-d*``: set iff this entry currently
  realises the smallest ``(d, kappa)`` for its source at this node (its
  ``d`` is the current shortest-distance estimate ``d*_x``);
* ``parent`` -- the neighbour the entry arrived from (the last edge of
  the path, which is the required APSP output alongside the distance).

An entry keeps no record of its sends: the program trace's ``send``
events (``trace=`` / ``tracer=``) carry every send with its round, and
:func:`repro.analysis.inspect.node_timeline` renders them per node.

Hot-path note: ``sort_key`` is a plain slot computed once in
``__init__`` (it was a property).  The kernelised
:class:`~repro.core.node_list.NodeList` reads it on every insert,
position query, and count, and ``kappa``/``d``/``x`` are immutable path
data, so caching is free and saves a descriptor call per access.
"""

from __future__ import annotations

from typing import Optional, Tuple


class Entry:
    """One element of ``list_v``.  Mutable flags, immutable path data."""

    __slots__ = ("kappa", "d", "l", "x", "flag_sp", "parent", "sort_key",
                 "_li")

    def __init__(self, kappa: float, d: int, l: int, x: int,
                 *, flag_sp: bool = False, parent: Optional[int] = None) -> None:
        self.kappa = kappa
        self.d = d
        self.l = l
        self.x = x
        self.flag_sp = flag_sp
        self.parent = parent
        #: List order: by key, ties by distance, then by the label of the
        #: source vertex (Section II-A).  Immutable -- computed once.
        self.sort_key: Tuple[float, int, int] = (kappa, d, x)
        #: Index of this entry within its source's per-source list --
        #: maintained by the owning NodeList kernel (None = not on a
        #: list).  Private coupling: an Entry is created by one node and
        #: lives on exactly one list, which is what makes an identity
        #: index on the entry itself safe (and free of the id()-reuse
        #: hazards a side-table would have).
        self._li: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        star = "*" if self.flag_sp else ""
        return (f"Entry(k={self.kappa:.3f}, d={self.d}, l={self.l}, "
                f"x={self.x}{star}, p={self.parent})")


class SourceBest:
    """Per-source shortest-path state at a node: the paper's
    ``d*_x`` plus the tie-break fields of Step 9 (hop length and parent
    id of the current best path)."""

    __slots__ = ("d", "l", "parent", "entry")

    def __init__(self) -> None:
        self.d: float = float("inf")
        self.l: float = float("inf")
        self.parent: Optional[int] = None
        #: The Entry object currently flagged as SP (None before first).
        self.entry: Optional[Entry] = None

    def beats(self, d: int, l: int, parent: Optional[int]) -> bool:
        """Step 9 of Algorithm 1: does a new candidate ``(d, l, parent)``
        replace the current shortest-path entry?  Strictly smaller
        distance; or equal distance and strictly fewer hops; or equal
        both and a smaller parent id.  The deterministic parent-id
        tie-break is what makes the 2h-hop run produce *consistent*
        trees (Section III-A)."""
        if d < self.d:
            return True
        if d == self.d:
            if l < self.l:
                return True
            if l == self.l:
                pa = -1 if parent is None else parent
                pb = -1 if self.parent is None else self.parent
                return pa < pb
        return False
