"""List entries for the pipelined algorithm (paper Table II / Section II-A).

An entry ``Z = (kappa, d, l, x)`` records one candidate path from source
``x`` to the node holding the entry: weighted distance ``d``, hop length
``l``, key ``kappa = d * gamma + l``.  It is the plain tuple
``(kappa, d, x, l, parent)``: the first three fields are the paper's
list order (by key, ties by distance, then by the label of the source
vertex), so an entry is its own sort key, and ``parent`` is the
neighbour it arrived from (the last edge of the path, the APSP output
alongside the distance; ``None`` for a source's own entry).

Three rules follow (:mod:`repro.core.node_list` keeps them):

* **Order on the first three fields only.**  ``parent`` may be ``None``,
  and equal-key twins keep their arrival order, which a full-tuple order
  would replace by ``l`` or parent.
* **Identity, never equality.**  One sender's two equal-key entries
  relayed by the same parent are equal tuples, so ``list.index``,
  ``list.remove`` and ``in`` may pick the wrong twin.
* **A plain tuple.**  CPython's collector stops tracking a tuple of
  numbers and ``None`` at its first collection; a class instance or a
  ``namedtuple`` stays tracked for the whole run.

The paper's ``Z.flag-d*`` is not a field: an entry is flagged iff it
*is* its source's holder on the list (``NodeList.flagged``).  No entry
records its sends; the program trace's ``send`` events do
(:func:`repro.analysis.inspect.node_timeline` renders them per node).
"""

from __future__ import annotations

from typing import Optional, Tuple

#: One element of ``list_v``: ``(kappa, d, x, l, parent)``.
Entry = Tuple[float, int, int, int, Optional[int]]


class SourceBest:
    """Per-source shortest-path state at a node: the paper's
    ``d*_x`` plus the tie-break fields of Step 9 (hop length and parent
    id of the current best path)."""

    __slots__ = ("d", "l", "parent")

    def __init__(self) -> None:
        self.d: float = float("inf")
        self.l: float = float("inf")
        self.parent: Optional[int] = None

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
