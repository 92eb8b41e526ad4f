"""Tests for graph serialisation and networkx interchange."""

import pytest

from repro.graphs import GraphError, random_graph
from repro.graphs import io as gio


class TestRoundTrip:
    def test_directed_roundtrip(self):
        g = random_graph(10, p=0.3, w_max=7, zero_fraction=0.3, seed=4)
        g2 = gio.loads(gio.dumps(g))
        assert g2.n == g.n and g2.directed == g.directed
        assert list(g2.edges()) == list(g.edges())

    def test_undirected_roundtrip(self):
        g = random_graph(8, p=0.3, w_max=7, directed=False, seed=4)
        text = gio.dumps(g)
        g2 = gio.loads(text)
        assert not g2.directed
        assert list(g2.edges()) == list(g.edges())
        # undirected dump emits each edge once
        assert sum(1 for ln in text.splitlines() if ln.startswith("e ")) == g.m // 2

    def test_file_roundtrip(self, tmp_path):
        g = random_graph(6, p=0.4, w_max=3, seed=1)
        path = tmp_path / "g.txt"
        gio.save(g, path)
        g2 = gio.load(path)
        assert list(g2.edges()) == list(g.edges())

    def test_comments_and_blank_lines(self):
        g = gio.loads("# hello\n\nn 2 directed\ne 0 1 5  # inline\n")
        assert g.weight(0, 1) == 5


class TestMalformedInput:
    @pytest.mark.parametrize("text,match", [
        ("e 0 1 5\n", "edge before"),
        ("n 2\n", "malformed 'n'"),
        ("n 2 directed\nn 2 directed\n", "duplicate"),
        ("n 2 directed\ne 0 1\n", "malformed 'e'"),
        ("n 2 directed\nz 1\n", "unknown record"),
        ("", "no 'n' record"),
        ("n 2 sideways\n", "malformed 'n'"),
        ("n abc directed\n", "^line 1: invalid literal for int.*'abc'"),
        ("n 0 directed\n", "^line 1: graph needs at least one node"),
        ("n 2 directed\ne 0 1 1.5\n", "^line 2: invalid literal.*'1.5'"),
        ("n 2 directed\n\ne 0 1 -4\n", "^line 3: negative edge weight"),
        ("n 2 directed\ne 0 2 1\n", "^line 2: edge \\(0,2\\) out of range"),
        ("n 2 directed\ne 1 1 1\n", "^line 2: self-loop at node 1"),
    ])
    def test_errors(self, text, match):
        with pytest.raises(GraphError, match=match):
            gio.loads(text)


class TestNetworkx:
    def test_to_from_networkx(self):
        g = random_graph(9, p=0.3, w_max=5, zero_fraction=0.3, seed=2)
        nxg = gio.to_networkx(g)
        assert nxg.number_of_nodes() == 9
        g2 = gio.from_networkx(nxg)
        assert list(g2.edges()) == list(g.edges())

    def test_from_networkx_default_weight(self):
        import networkx as nx
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(2))
        nxg.add_edge(0, 1)  # no weight attr -> 1
        g = gio.from_networkx(nxg)
        assert g.weight(0, 1) == 1
