"""Cache-under-churn property tests for the serving layer.

The serving-layer guarantee under churn: after **any** stream of
``EdgeUpdate`` events -- with queries interleaved so route rows are
carried across every refresh epoch -- every distance the oracle
serves equals the Dijkstra ground truth on the current graph.  Stale
route rows surviving a refresh would break exactly this, so the
assertions go through the public query path -- ``path()``, a
route-row read, next to ``distance()``, a table-row read -- never the
raw tables.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import WeightedDigraph, dijkstra, random_graph
from repro.recovery import DynamicRun, EdgeUpdate
from repro.serve import DistanceOracle, Query

INF = float("inf")


@st.composite
def churn_scenarios(draw):
    """(graph, update_batches) where each batch is a list of EdgeUpdate
    on *existing* edges: weight bumps, drops to zero, and deletions
    (weight=None)."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    n = draw(st.integers(min_value=3, max_value=8))
    g = random_graph(n, p=0.5, w_max=6, zero_fraction=0.25, seed=seed)
    edges = sorted(g.edges())
    if not edges:
        g = random_graph(n, p=1.0, w_max=6, seed=seed)
        edges = sorted(g.edges())
    num_batches = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(seed ^ 0xC4A11)
    batches = []
    for _ in range(num_batches):
        size = draw(st.integers(min_value=1, max_value=3))
        batch = []
        for _ in range(size):
            u, v, w = rng.choice(edges)
            kind = draw(st.sampled_from(["bump", "zero", "delete"]))
            if kind == "bump":
                batch.append(EdgeUpdate(u, v, w + rng.randint(1, 5)))
            elif kind == "zero":
                batch.append(EdgeUpdate(u, v, 0))
            else:
                batch.append(EdgeUpdate(u, v, None))
        batches.append(batch)
    return g, batches, seed


def assert_all_served_match_dijkstra(oracle: DistanceOracle) -> None:
    """Every (source, target) answer equals ground truth on the
    oracle's *current* graph: the distance, and the route from the
    view's route row -- ``None`` iff unreachable, else its distance and
    its weight walked on the current graph."""
    g = oracle.graph
    for u in oracle.sources:
        want = dijkstra(g, u)[0]
        for v in range(g.n):
            at = f"{u}->{v} (epoch {oracle.epoch})"
            got = oracle.distance(u, v)
            assert got == want[v], (
                f"stale distance {at}: served {got}, true {want[v]}")
            route = oracle.path(u, v)
            if want[v] == INF:
                assert route is None, f"route to unreachable {at}: {route}"
                continue
            assert route is not None, f"no route {at}, true {want[v]}"
            walked = [g.weight(a, b)
                      for a, b in zip(route.path, route.path[1:])]
            ok = (route.distance == want[v] and None not in walked
                  and sum(walked) == want[v])
            assert ok, f"stale route {at}: {route}, true {want[v]}"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(churn_scenarios())
def test_served_distances_match_dijkstra_after_any_update_stream(scenario):
    g, batches, seed = scenario
    oracle = DistanceOracle(g, method="bellman-ford")
    rng = random.Random(seed ^ 0xF00D)

    def warm_cache():
        # Build route rows for a spread of pairs so every refresh has
        # live rows to carry or drop.
        qs = [Query(rng.randrange(g.n), rng.randrange(g.n),
                    rng.choice(["distance", "path"]))
              for _ in range(2 * g.n)]
        oracle.query_batch(qs)

    warm_cache()
    assert_all_served_match_dijkstra(oracle)
    for batch in batches:
        old = dict(oracle.view.routes)
        oracle.refresh(*batch)
        # Every carried row is the one the new table builds, and holds
        # the old route object wherever that route is still exact.
        table = oracle.view.table
        assert oracle.view.routes.keys() == old.keys()
        for u, row in oracle.view.routes.items():
            want = table.routes(u)
            assert row == want, f"stale route row of {u}"
            for v, r in enumerate(old[u]):
                if r is not None:
                    assert (row[v] is r) == (r == want[v]), (u, v)
        # The whole point: answers *after* the refresh read the rows
        # the new view carried over from the pre-refresh queries.
        assert_all_served_match_dijkstra(oracle)
        assert oracle.validate() == []
        warm_cache()
    # Epochs advanced once per refresh; history is complete.
    assert oracle.epoch == len(batches)
    assert len(oracle.refreshes) == len(batches)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(churn_scenarios())
def test_paths_stay_genuine_after_churn(scenario):
    """Served paths (not just distances) remain walkable on the
    current graph after every refresh."""
    g, batches, _ = scenario
    oracle = DistanceOracle(g, method="bellman-ford")
    for batch in batches:
        oracle.refresh(*batch)
    assert_all_served_match_dijkstra(oracle)


def test_stale_route_check_has_teeth(monkeypatch):
    """``assert_all_served_match_dijkstra`` must catch a stored route
    that outlives its epoch: with the refresh told that no source was
    affected, source 0's row stored before the refresh is carried into
    the new view.  The first stale pair is 0 -> 1 (weight 1, now 51):
    ``path(0, 2)`` stored the whole row."""
    apply = DynamicRun.apply

    def apply_forgetting_affected(self, *events):
        return dataclasses.replace(apply(self, *events), affected=())

    monkeypatch.setattr(DynamicRun, "apply", apply_forgetting_affected)
    g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 0), (0, 2, 7)])
    oracle = DistanceOracle(g, method="pipelined")
    assert oracle.path(0, 2).distance == 1
    oracle.refresh(EdgeUpdate(0, 1, 51))
    with pytest.raises(AssertionError, match="stale route 0->1"):
        assert_all_served_match_dijkstra(oracle)
