"""Differential tests: frozen CSR kernels vs the dict-graph searches.

The dispatch contract is *bit identity*, not approximate agreement: the
kernels push the same keys in the same order as the dict implementations,
so distances, paths, visited counts and even the observability counters
must match exactly.  The dict path is the oracle throughout.
"""

import random

import pytest

from repro.network.generators import beijing_like, grid_city
from repro.obs import MetricsRegistry, use_registry
from repro.search.astar import a_star
from repro.search.bidirectional import bidirectional_dijkstra
from repro.search.bidirectional_astar import bidirectional_a_star
from repro.search.dijkstra import (
    bounded_ball,
    bounded_ball_tree,
    dijkstra,
    one_to_many,
    sssp_distances,
    sssp_tree,
)
from repro.search.generalized_astar import generalized_a_star

from tests.conftest import assert_valid_path

POINT_TO_POINT = (dijkstra, a_star, bidirectional_dijkstra, bidirectional_a_star)


def _networks():
    """Three structurally different networks; fresh copies per test."""
    return [
        ("grid", grid_city(6, 6, spacing=1.0, seed=3)),
        ("ring", beijing_like("tiny", seed=5)),
        ("sparse", grid_city(9, 4, spacing=2.0, seed=17)),
    ]


def _pairs(graph, count, seed):
    rng = random.Random(seed)
    n = graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _run_all(graph, source, target):
    """One record per algorithm: (distance, path, visited) + counters."""
    registry = MetricsRegistry()
    out = []
    with use_registry(registry):
        for fn in POINT_TO_POINT:
            r = fn(graph, source, target)
            out.append((fn.__name__, r.distance, tuple(r.path), r.visited))
    counters = {
        k: v for k, v in registry.snapshot().counters.items()
        if k.startswith("search.")
    }
    return out, counters


class TestDifferentialPointToPoint:
    @pytest.mark.parametrize("name,graph", _networks(), ids=lambda x: x if isinstance(x, str) else "")
    def test_200_random_queries_bit_identical(self, name, graph):
        """70 pairs x 3 networks x 4 algorithms: distances, paths, visited
        and obs counters all agree between the dict and CSR paths."""
        frozen = graph.copy()
        frozen.freeze()
        for source, target in _pairs(graph, 70, seed=hash(name) & 0xFFFF):
            dict_out, dict_counters = _run_all(graph, source, target)
            csr_out, csr_counters = _run_all(frozen, source, target)
            assert csr_out == dict_out, (source, target)
            assert csr_counters == dict_counters, (source, target)
            distance = dict_out[0][1]
            path = list(dict_out[0][2])
            if path:
                assert_valid_path(graph, path, source, target, distance)

    def test_mutate_then_refreeze_tracks_new_weights(self):
        graph = grid_city(6, 6, spacing=1.0, seed=3)
        frozen = graph.copy()
        frozen.freeze()
        rng = random.Random(99)
        edges = list(graph.edges())
        for _ in range(5):
            for u, v, _ in rng.sample(edges, 8):
                w = rng.uniform(0.5, 4.0)
                graph.set_weight(u, v, w)
                frozen.set_weight(u, v, w)
            frozen.freeze()  # stale snapshot dropped, new one built
            for source, target in _pairs(graph, 10, seed=rng.randrange(1 << 16)):
                assert _run_all(frozen, source, target) == _run_all(
                    graph, source, target
                )

    def test_stale_snapshot_is_never_dispatched(self):
        graph = grid_city(4, 4, spacing=1.0, seed=1)
        graph.freeze()
        u, v, w = next(iter(graph.edges()))
        graph.set_weight(u, v, w * 10.0)
        # No re-freeze: dispatch must fall back to the dict path and see
        # the new weight rather than the stale snapshot.
        fresh = dijkstra(graph, u, v)
        oracle = dijkstra(graph.copy(), u, v)
        assert fresh.distance == oracle.distance


class TestDifferentialOneToMany:
    @pytest.mark.parametrize("name,graph", _networks(), ids=lambda x: x if isinstance(x, str) else "")
    def test_boundary_searches_match(self, name, graph):
        frozen = graph.copy()
        frozen.freeze()
        rng = random.Random(7)
        n = graph.num_vertices
        for _ in range(8):
            source = rng.randrange(n)
            radius = rng.uniform(1.0, 6.0)
            targets = [rng.randrange(n) for _ in range(6)]

            for backward in (False, True):
                assert bounded_ball(
                    frozen, source, radius, backward=backward
                ) == bounded_ball(graph, source, radius, backward=backward)
                assert bounded_ball_tree(
                    frozen, source, radius, backward=backward
                ) == bounded_ball_tree(graph, source, radius, backward=backward)
                assert one_to_many(
                    frozen, source, targets, backward=backward
                ) == one_to_many(graph, source, targets, backward=backward)
                assert sssp_distances(
                    frozen, source, backward=backward
                ) == sssp_distances(graph, source, backward=backward)
                assert sssp_tree(frozen, source, backward=backward) == sssp_tree(
                    graph, source, backward=backward
                )


class TestDifferentialGeneralized:
    @pytest.mark.parametrize("mode", ["zero", "representative", "min-target"])
    def test_generalized_matches_dict_path(self, mode):
        graph = beijing_like("tiny", seed=5)
        frozen = graph.copy()
        frozen.freeze()
        rng = random.Random(31)
        n = graph.num_vertices
        for _ in range(10):
            source = rng.randrange(n)
            targets = [rng.randrange(n) for _ in range(4)]
            res, visited = generalized_a_star(frozen, source, targets, mode=mode)
            oracle, oracle_visited = generalized_a_star(
                graph, source, targets, mode=mode
            )
            assert visited == oracle_visited
            assert set(res) == set(oracle)
            for t in res:
                assert res[t].distance == oracle[t].distance
                assert res[t].path == oracle[t].path
                assert res[t].visited == oracle[t].visited


class TestDegenerateHeuristics:
    """Satellite: bidirectional A* at heuristic_scale == 0 and w == 0."""

    def _coincident_graph(self):
        # Every vertex at the same point: euclid == 0 on every edge, so
        # heuristic_scale degrades to 0.0 and A* must equal Dijkstra.
        from repro.network.graph import RoadNetwork

        g = RoadNetwork([1.0] * 5, [2.0] * 5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 4.0)
        g.add_edge(2, 3, 1.5)
        g.add_edge(3, 4, 0.5)
        g.add_edge(0, 4, 9.0)
        return g

    @pytest.mark.parametrize("freeze", [False, True])
    def test_scale_zero_graph_is_exact(self, freeze):
        g = self._coincident_graph()
        assert g.heuristic_scale == 0.0
        if freeze:
            g.freeze()
        for s in range(5):
            for t in range(5):
                want = dijkstra(g, s, t)
                for fn in (a_star, bidirectional_a_star, bidirectional_dijkstra):
                    got = fn(g, s, t)
                    assert got.distance == want.distance, (fn.__name__, s, t)
                    if want.path:
                        assert_valid_path(g, got.path, s, t, got.distance)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_zero_weight_edges_are_exact(self, freeze):
        g = grid_city(4, 4, spacing=1.0, seed=2)
        rng = random.Random(5)
        for u, v, _ in rng.sample(list(g.edges()), 6):
            g.set_weight(u, v, 0.0)
        assert g.heuristic_scale == 0.0  # some edge has w == 0 < euclid
        if freeze:
            g.freeze()
        oracle = g.copy()  # dict path, never frozen
        for s, t in _pairs(g, 25, seed=8):
            want = dijkstra(oracle, s, t)
            for fn in POINT_TO_POINT:
                got = fn(g, s, t)
                # Bit-identical to the same algorithm on the dict graph;
                # bidirectional meets sum dist_f + dist_b, so agreement
                # with plain Dijkstra is only up to rounding.
                ref = fn(oracle, s, t)
                assert got.distance == ref.distance, (fn.__name__, s, t)
                assert got.path == ref.path, (fn.__name__, s, t)
                assert got.distance == pytest.approx(want.distance, rel=1e-12)
