"""Property-based round-trip tests for serialisation and conversions."""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphs import GraphError, WeightedDigraph
from repro.graphs import io as gio

from conftest import graph_instances

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=60, **COMMON)
@given(graph_instances())
def test_text_roundtrip(gi):
    g, _ = gi
    g2 = gio.loads(gio.dumps(g))
    assert g2.n == g.n
    assert g2.directed == g.directed
    assert list(g2.edges()) == list(g.edges())


@settings(max_examples=40, **COMMON)
@given(graph_instances())
def test_networkx_roundtrip(gi):
    g, _ = gi
    g2 = gio.from_networkx(gio.to_networkx(g))
    assert list(g2.edges()) == list(g.edges())


@settings(max_examples=40, **COMMON)
@given(graph_instances())
def test_double_roundtrip_fixpoint(gi):
    g, _ = gi
    once = gio.dumps(g)
    twice = gio.dumps(gio.loads(once))
    assert once == twice


#: Record-shaped lines: mostly well-formed tokens (so some inputs parse
#: and the edge checks run), salted with non-integers and free text.
_token = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["n", "e", "directed", "undirected", "1.5", "abc",
                     "#", "0x1"]),
    st.text(max_size=3))
_line = st.one_of(
    st.tuples(st.just("n"), _token, st.sampled_from(
        ["directed", "undirected"])).map(" ".join),
    st.tuples(st.just("e"), _token, _token, _token).map(" ".join),
    st.lists(_token, max_size=5).map(" ".join))


@settings(max_examples=300, **COMMON)
@given(st.lists(_line, max_size=8).map("\n".join))
def test_loads_returns_a_graph_or_names_the_line(text):
    try:
        g = gio.loads(text)
    except GraphError as exc:
        msg = str(exc)
        if msg != "no 'n' record found":
            m = re.match(r"line (\d+): ", msg)
            assert m, msg
            assert 1 <= int(m.group(1)) <= len(text.splitlines())
    else:
        assert isinstance(g, WeightedDigraph)
