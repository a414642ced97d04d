"""Unit tests for the customizable contraction hierarchy."""

import math
import time

import pytest

from repro.exceptions import IndexConstructionError, QueryError, StaleIndexError
from repro.index.cch import CustomizableContractionHierarchy
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.obs import MetricsRegistry, use_registry
from repro.search.dijkstra import dijkstra, sssp_distances
from tests.conftest import assert_valid_path


@pytest.fixture(scope="module")
def small_grid():
    return grid_city(5, 5, seed=8)


@pytest.fixture(scope="module")
def cch(small_grid):
    return CustomizableContractionHierarchy(small_grid)


class TestDistances:
    def test_all_pairs_match_dijkstra_exactly(self, small_grid, cch):
        n = small_grid.num_vertices
        for s in range(0, n, 3):
            truth = sssp_distances(small_grid, s)
            for t in range(0, n, 4):
                assert cch.distance(s, t) == truth[t], (s, t)

    def test_same_vertex(self, cch):
        assert cch.distance(3, 3) == 0.0

    def test_directed_graph(self, line_graph):
        cch = CustomizableContractionHierarchy(line_graph)
        assert cch.distance(0, 4) == 1.0 + 1.1 + 1.2 + 1.3
        assert math.isinf(cch.distance(4, 0))

    def test_ring_sample(self, ring):
        cch = CustomizableContractionHierarchy(ring)
        for s, t in [(0, 70), (12, 140), (99, 3)]:
            assert cch.distance(s, t) == dijkstra(ring, s, t).distance


class TestPaths:
    def test_unpacked_path_valid(self, small_grid, cch):
        for s, t in [(0, 24), (3, 20), (10, 14)]:
            r = cch.query(s, t)
            assert_valid_path(small_grid, r.path, s, t, r.distance, tol=1e-6)

    def test_path_has_no_shortcuts(self, small_grid, cch):
        r = cch.query(0, 24)
        for u, v in zip(r.path, r.path[1:]):
            assert small_grid.has_edge(u, v)

    def test_unreachable_returns_empty_path(self, line_graph):
        cch = CustomizableContractionHierarchy(line_graph)
        r = cch.query(4, 0)
        assert math.isinf(r.distance)
        assert r.path == []


class TestConstruction:
    def test_ranks_are_a_permutation(self, small_grid, cch):
        assert sorted(cch.rank) == list(range(small_grid.num_vertices))

    def test_phase_times_recorded(self, cch):
        assert cch.order_seconds > 0.0
        assert cch.customize_seconds > 0.0

    def test_supergraph_covers_every_arc(self, small_grid, cch):
        assert cch.num_super_edges >= small_grid.num_edges // 2
        assert cch.num_triangles >= 0

    def test_empty_graph_rejected(self):
        with pytest.raises(IndexConstructionError):
            CustomizableContractionHierarchy(RoadNetwork([], []))


class TestEpochKeying:
    def test_weight_change_marks_stale(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        assert not cch.stale
        u, v, w = next(iter(g.edges()))
        g.set_weight(u, v, w * 2)
        assert cch.stale

    def test_ensure_current_recustomizes_once(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        before = cch.customizations
        assert cch.ensure_current() is False
        g.scale_weights(1.5)
        assert cch.ensure_current() is True
        assert cch.ensure_current() is False
        assert cch.customizations == before + 1
        assert not cch.stale

    def test_auto_customize_query_follows_mutation(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        g.scale_weights(2.0)
        assert cch.distance(0, 24) == dijkstra(g, 0, 24).distance
        assert not cch.stale

    def test_manual_mode_raises_stale_index_error(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g, auto_customize=False)
        u, v, w = next(iter(g.edges()))
        g.set_weight(u, v, w * 3)
        with pytest.raises(StaleIndexError) as err:
            cch.distance(0, 24)
        assert err.value.current_version == g.version
        cch.customize()
        assert cch.distance(0, 24) == dijkstra(g, 0, 24).distance

    def test_weight_epochs_never_rebuild_order(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        assert cch.order_builds == 1
        for factor in (1.3, 0.7, 2.1):
            g.scale_weights(factor)
            cch.customize()
        assert cch.order_builds == 1

    def test_add_edge_outside_closure_rebuilds_order(self, small_grid):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        # Opposite grid corners are never chordal neighbors of each other
        # on a 5x5 grid, so this arc forces a new elimination order.
        assert not g.has_edge(0, 24)
        g.add_edge(0, 24, 0.5)
        cch.customize()
        assert cch.order_builds == 2
        assert cch.distance(0, 24) == 0.5
        assert cch.distance(1, 24) == dijkstra(g, 1, 24).distance


# ----------------------------------------------------------------------
# Flat layout, level schedule and the two customization loops
# ----------------------------------------------------------------------
def _unit_grid(rows: int, cols: int) -> RoadNetwork:
    """A street grid with every weight set to 1: every distance ties."""
    g = grid_city(rows, cols, seed=1)
    for u, v, _w in list(g.edges()):
        g.set_weight(u, v, 1.0)
    return g


def _customized_state(index, monkeypatch, backend):
    """Re-customize under ``REPRO_KERNEL=backend``; weights + triangle picks."""
    monkeypatch.setenv("REPRO_KERNEL", backend)
    index.customize()
    return (
        index.shortcut_weights(),
        list(index._up_tri),  # noqa: SLF001 - the loops must agree on these
        list(index._down_tri),  # noqa: SLF001
    )


class TestEndpointValidation:
    @pytest.mark.parametrize("s,t,bad", [(-1, 3, -1), (3, 99, 99), (25, 0, 25)])
    def test_out_of_range_vertex_raises_query_error(self, cch, s, t, bad):
        with pytest.raises(QueryError) as err:
            cch.query(s, t)
        assert str(bad) in str(err.value)
        assert "|V| = 25" in str(err.value)

    def test_distance_validates_too(self, cch):
        with pytest.raises(QueryError):
            cch.distance(0, -2)


class TestTimingAttribution:
    def test_order_rebuild_not_booked_as_customization(
        self, small_grid, monkeypatch
    ):
        g = small_grid.copy()
        cch = CustomizableContractionHierarchy(g)
        g.scale_weights(1.2)
        cch.customize()  # a weight-only epoch, for scale
        assert cch.customize_seconds < 0.2

        rebuild = CustomizableContractionHierarchy._build_order
        stall = 0.25

        def slow_rebuild(self):
            time.sleep(stall)
            rebuild(self)

        monkeypatch.setattr(
            CustomizableContractionHierarchy, "_build_order", slow_rebuild
        )
        g.add_edge(0, 24, 0.5)  # outside the chordal closure
        registry = MetricsRegistry()
        with use_registry(registry):
            began = time.perf_counter()
            returned = cch.customize()
            wall = time.perf_counter() - began
        assert cch.order_builds == 2
        assert wall >= stall
        assert returned == cch.customize_seconds < 0.2
        snap = registry.snapshot()
        assert snap.counters["index.order_builds"] == 1
        assert snap.histograms["index.customize_seconds"]["sum"] < 0.2


class TestLevelSchedule:
    @pytest.mark.parametrize(
        "graph",
        [grid_city(5, 5, seed=8), grid_city(4, 7, seed=3), _unit_grid(4, 4)],
        ids=["grid5", "grid4x7", "unit4"],
    )
    def test_triangles_read_lower_levels_than_they_write(self, graph):
        cch = CustomizableContractionHierarchy(graph)
        tail, head = cch._tail, cch._head  # noqa: SLF001
        # level(v) = 1 + max level of v's lower neighbours, recomputed
        # here from the super-edges (sorted by rank of their tail).
        level = [0] * graph.num_vertices
        for e in range(cch.num_super_edges):
            level[head[e]] = max(level[head[e]], level[tail[e]] + 1)
        by_rank = sorted(range(graph.num_vertices), key=cch.rank.__getitem__)
        assert [level[v] for v in by_rank] == sorted(level), "rank is level-major"
        first = cch._level_first  # noqa: SLF001
        assert len(first) == cch.num_levels + 1 == max(level) + 2
        assert first[0] == 0 and first[-1] == cch.num_triangles
        for k in range(cch.num_levels):
            for t in range(first[k], first[k + 1]):
                ab = cch._tri_ab[t]  # noqa: SLF001
                va = cch._tri_va[t]  # noqa: SLF001
                vb = cch._tri_vb[t]  # noqa: SLF001
                assert tail[va] == tail[vb], "both lower legs leave v"
                assert (tail[ab], head[ab]) == (head[va], head[vb])
                assert level[tail[va]] == k
                assert level[tail[ab]] > k, "writes go to higher levels only"

    def test_arc_slots_cover_every_arc(self, small_grid, cch):
        m = cch.num_super_edges
        tail, head = cch._tail, cch._head  # noqa: SLF001
        arcs = list(small_grid.edges())
        assert len(cch._arc_slot) == len(arcs)  # noqa: SLF001
        for (u, v, _w), slot in zip(arcs, cch._arc_slot):  # noqa: SLF001
            e = slot % m
            assert (u, v) == ((tail[e], head[e]) if slot < m else (head[e], tail[e]))


class TestTwoLoopsOneLayout:
    """numpy-by-level and scalar customization must be indistinguishable."""

    def _assert_loops_agree(self, graph, monkeypatch):
        index = CustomizableContractionHierarchy(graph)
        vectorized = _customized_state(index, monkeypatch, "auto")
        paths = {
            (s, t): index.query(s, t).path
            for s in range(0, graph.num_vertices, 2)
            for t in range(0, graph.num_vertices, 3)
        }
        scalar = _customized_state(index, monkeypatch, "csr")
        assert scalar == vectorized
        for (s, t), path in paths.items():
            r = index.query(s, t)
            assert r.path == path
            assert r.distance == dijkstra(graph, s, t).distance
        return index

    def test_random_weights(self, small_grid, monkeypatch):
        self._assert_loops_agree(small_grid.copy(), monkeypatch)

    def test_exact_ties_unit_weights(self, monkeypatch):
        index = self._assert_loops_agree(_unit_grid(5, 5), monkeypatch)
        # Ties everywhere: some shortcut must have had several triangles
        # attain its minimum, so the first-in-rank-order rule was exercised.
        assert any(t >= 0 for t in index._up_tri)  # noqa: SLF001

    def test_across_weight_epochs_and_topology_growth(
        self, small_grid, monkeypatch
    ):
        g = small_grid.copy()
        a = CustomizableContractionHierarchy(g)
        b = CustomizableContractionHierarchy(g)
        edges = [(u, v) for u, v, _w in g.edges()]
        assert not g.has_edge(1, 5) and not g.has_edge(5, 1)
        mutations = [  # (mutation, order builds expected afterwards)
            (lambda: g.scale_weights(1.7), 1),
            (lambda: g.set_weight(*edges[3], 0.05), 1),
            (lambda: g.scale_weights(0.5, edges=edges[5:11]), 1),
            (lambda: g.add_edge(1, 5, 0.4), 1),  # a fill-in edge: arcs re-mapped only
            (lambda: g.add_edge(0, 24, 0.5), 2),  # outside the chordal closure
            (lambda: g.set_weight(0, 24, 9.0), 2),
        ]
        for mutate, order_builds in mutations:
            mutate()
            assert _customized_state(a, monkeypatch, "auto") == _customized_state(
                b, monkeypatch, "csr"
            )
            assert a.rank == b.rank
            assert a.order_builds == b.order_builds == order_builds
            for s, t in [(0, 24), (24, 0), (7, 18), (20, 4)]:
                assert a.query(s, t).path == b.query(s, t).path
                assert a.distance(s, t) == dijkstra(g, s, t).distance

    def test_unpacked_distance_is_the_paths_own_prefix_sum(self, small_grid, cch):
        for s, t in [(0, 24), (3, 20), (10, 14), (24, 1)]:
            r = cch.query(s, t)
            assert r.distance == small_grid.path_prefix_weights(r.path)[-1]
