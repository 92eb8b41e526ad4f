"""Simulator backend selection.

Two interchangeable CONGEST simulator backends exist:

* ``"reference"`` -- :class:`repro.congest.network.Network`, the
  straight-line reference simulator: the spec every other execution
  path is pinned to;
* ``"columnar"`` -- :class:`repro.perf.columnar.ColumnarNetwork`, the
  production engine and the default: bulk numpy kernels for the
  relaxation family and the pipelined (h, k)-SSP family, and an
  event-driven per-message loop for every other program and every
  hooked run, pinned by the differential machinery
  (``tests/backend_conformance.py`` parametrizes the whole suite over
  this registry).

Both backends support the full hook surface (``fault_plan``,
``monitor``, ``tracer``, ``registry``, ``record_window``), so backend
choice is purely a wall-clock decision: there is no hook combination
that forces one backend.  The explicit-vs-ambient rule: an *explicit*
``backend=`` request is always honored and never silently diverges
from the reference, and a backend may fall back internally only to a
differentially-pinned equivalent.

Call sites in :mod:`repro.core` construct networks through
:func:`make_network` instead of naming a class, and every ``run_*``
entry point / CLI command threads an optional ``backend=`` argument down
to it.  Selection precedence:

1. an explicit ``backend=`` argument (a :data:`BACKENDS` name);
2. the ambient default, set by the :func:`use_backend` context manager;
3. the ``REPRO_BACKEND`` environment variable;
4. ``"columnar"``.

``REPRO_BACKEND`` is validated *lazily*, at the first
:func:`make_network` / :func:`get_default_backend` call, not at import
time: a typo'd value must produce a clear error naming the bad value at
the point a simulation is actually requested, without making the
package (or ``repro --help``) unimportable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from ..congest.network import Network
from ..congest.node import Program
from .columnar import ColumnarNetwork

#: Backend name -> network class.  Both classes share the constructor
#: signature and the ``run(max_rounds) -> RunMetrics`` contract.
BACKENDS: Dict[str, Any] = {
    "reference": Network,
    "columnar": ColumnarNetwork,
}

#: The ambient default; ``None`` means "not chosen yet" -- resolved
#: lazily from ``REPRO_BACKEND`` (then ``"columnar"``) on first use.
_default_backend: Optional[str] = None


def _validated(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {name!r}; available: "
            f"{sorted(BACKENDS)}")
    return name


def _resolved_default() -> str:
    """The ambient default, resolving ``REPRO_BACKEND`` on first use.

    Deferred validation is the point: a bad environment value raises
    here -- naming the variable and the value, at the moment a backend
    is actually needed -- rather than poisoning ``import repro``.
    """
    global _default_backend
    if _default_backend is None:
        env = os.environ.get("REPRO_BACKEND")
        if env:
            try:
                _default_backend = _validated(env)
            except ValueError as exc:
                raise ValueError(f"REPRO_BACKEND: {exc}") from None
        else:
            _default_backend = "columnar"
    return _default_backend


def get_default_backend() -> str:
    """The ambient backend name (``"columnar"`` unless overridden by
    :func:`use_backend` or ``REPRO_BACKEND``)."""
    return _resolved_default()


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[Optional[str]]:
    """Temporarily switch the ambient default backend::

        with use_backend("reference"):
            result = run_apsp(g)

    ``use_backend(None)`` is a no-op, so callers threading an *optional*
    backend choice need no conditional.
    """
    global _default_backend
    if name is None:
        yield None
        return
    prev = _default_backend  # possibly None: restore the unresolved state
    _default_backend = _validated(name)
    try:
        yield name
    finally:
        _default_backend = prev


def make_network(graph: Any, program_factory: Callable[[int], Program],
                 *, backend: Optional[str] = None, **kwargs: Any):
    """Construct a simulator network on the selected backend.

    ``backend`` is a :data:`BACKENDS` name (``"reference"``,
    ``"columnar"``) or ``None`` (use the ambient default).  Every hook
    kwarg is honored by both backends, so selection never depends on
    the hooks a call carries.
    """
    name = _validated(backend) if backend is not None else _resolved_default()
    return BACKENDS[name](graph, program_factory, **kwargs)


__all__ = [
    "BACKENDS", "ColumnarNetwork", "make_network", "get_default_backend",
    "use_backend",
]
