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
*is* its source's holder on the list (``NodeList.flagged``), and the
holder's ``d``, ``l`` and ``parent`` are the node's ``d*_x``, ``l*_x``
and Step 9's tie-break -- a node keeps no other per-source state.  No
entry records its sends; the program trace's ``send`` events do
(:func:`repro.analysis.inspect.node_timeline` renders them per node).
"""

from __future__ import annotations

from typing import Optional, Tuple

#: One element of ``list_v``: ``(kappa, d, x, l, parent)``.
Entry = Tuple[float, int, int, int, Optional[int]]
