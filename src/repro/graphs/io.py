"""Plain-text serialisation of weighted digraphs.

Format (one record per line, ``#`` comments allowed)::

    # repro graph v1
    n <num_nodes> <directed|undirected>
    e <u> <v> <w>

This keeps benchmark inputs reproducible and diffable, and provides the
interchange point with networkx for users who already have graphs there.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .digraph import GraphError, WeightedDigraph


def dumps(graph: WeightedDigraph) -> str:
    lines = ["# repro graph v1",
             f"n {graph.n} {'directed' if graph.directed else 'undirected'}"]
    emitted = set()
    for u, v, w in graph.edges():
        if not graph.directed:
            key = (min(u, v), max(u, v))
            if key in emitted:
                continue
            emitted.add(key)
        lines.append(f"e {u} {v} {w}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> WeightedDigraph:
    """Parse the text format.  Every malformed record raises a
    :class:`GraphError` whose message starts ``line <k>:``."""
    graph: Optional[WeightedDigraph] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        # GraphError is a ValueError: this catches int()'s bare errors
        # and the graph's own (bad node count, weight, endpoint) alike.
        try:
            if parts[0] == "n":
                if graph is not None:
                    raise GraphError("duplicate 'n' record")
                if len(parts) != 3 or parts[2] not in ("directed", "undirected"):
                    raise GraphError(f"malformed 'n' record: {raw!r}")
                graph = WeightedDigraph(int(parts[1]), directed=parts[2] == "directed")
            elif parts[0] == "e":
                if graph is None:
                    raise GraphError("edge before 'n' record")
                if len(parts) != 4:
                    raise GraphError(f"malformed 'e' record: {raw!r}")
                graph.add_edge(int(parts[1]), int(parts[2]), int(parts[3]))
            else:
                raise GraphError(f"unknown record {parts[0]!r}")
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
    if graph is None:
        raise GraphError("no 'n' record found")
    return graph


def save(graph: WeightedDigraph, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(graph))


def load(path: Union[str, Path]) -> WeightedDigraph:
    return loads(Path(path).read_text())


def to_networkx(graph: WeightedDigraph):
    """Convert to a ``networkx.DiGraph`` (weights on attribute 'weight').
    Requires networkx (an optional dependency)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.n))
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    return g


def from_networkx(nx_graph, *, weight_attr: str = "weight") -> WeightedDigraph:
    """Convert from a networkx (Di)Graph with integer weights; nodes must
    be integers 0..n-1 (relabel first with
    ``networkx.convert_node_labels_to_integers`` otherwise)."""
    directed = nx_graph.is_directed()
    n = nx_graph.number_of_nodes()
    g = WeightedDigraph(n, directed=directed)
    for u, v, data in nx_graph.edges(data=True):
        g.add_edge(int(u), int(v), int(data.get(weight_attr, 1)))
    return g
