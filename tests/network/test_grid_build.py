"""The vectorised grid build against the scalar one, and the shared grid.

The scalar loop (:meth:`GridIndex._build_scalar`, pinned by
``REPRO_KERNEL=csr``) is the reference: the numpy build must reproduce it
bit for bit at every level — the same cell keys in the same order, the same
counts, weights, direction masses and vertex lists — whether it reads a
frozen snapshot or the dict adjacency.
"""

from __future__ import annotations

import math
import os
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.network.grid as grid_module
from repro.core.search_space import SearchSpaceDecomposer
from repro.network.generators import beijing_like
from repro.network.graph import RoadNetwork
from repro.network.grid import GridIndex, auto_levels
from repro.network.timeline import TrafficTimeline, congestion_snapshot
from repro.queries.arrivals import PoissonArrivals
from repro.queries.workload import WorkloadGenerator
from repro.search.np_kernels import BACKEND_KNOB
from repro.streaming import StreamingQueryService


def scalar_grid(graph, levels):
    with mock.patch.dict(os.environ, {BACKEND_KNOB: "csr"}):
        return GridIndex(graph, levels=levels)


def fingerprint(grid):
    """Every level's cells in dict order, floats compared by their bits."""
    return [
        [
            (cell, s.n, s.weight.hex(), s._direction_mass.hex(), s.vertices)
            for cell, s in grid._level_cells[level].items()
        ]
        for level in range(grid.levels + 1)
    ]


def assert_same_build(graph, levels):
    fast = GridIndex(graph, levels=levels)
    assert fingerprint(fast) == fingerprint(scalar_grid(graph, levels))
    assert fast._level_cells[levels] is fast._cells


@pytest.fixture(scope="module", params=["tiny", "small", "medium", "large"])
def preset(request):
    return beijing_like(request.param)


class TestVectorisedBuild:
    def test_ring_every_level_count(self, ring):
        for levels in range(1, 9):
            assert_same_build(ring, levels)

    def test_presets_dict_graph_and_frozen(self, preset):
        graph = preset.copy()
        levels = auto_levels(graph)
        assert_same_build(graph, levels)
        graph.freeze()
        assert_same_build(graph, levels)

    def test_stale_snapshot_is_not_read(self, ring):
        graph = ring.copy()
        graph.freeze()
        u, v, w = next(graph.edges())
        graph.set_weight(u, v, w * 3.0)
        assert_same_build(graph, 4)
        assert graph.frozen_or_none() is None  # the build never freezes

    def test_without_numpy_matches_vectorised(self, ring, monkeypatch):
        fast = fingerprint(GridIndex(ring, levels=5))
        monkeypatch.setattr(grid_module, "np", None)
        assert fingerprint(GridIndex(ring, levels=5)) == fast

    def test_sse_decomposition_unchanged(self, ring, ring_batch):
        def clusters(grid):
            d = SearchSpaceDecomposer(ring, grid=grid).decompose(ring_batch)
            return [(c.queries, sorted(c.covered_cells), c.direction) for c in d]

        levels = auto_levels(ring)
        assert clusters(GridIndex(ring, levels=levels)) == clusters(
            scalar_grid(ring, levels)
        )


# Coordinates on a quarter-unit lattice put vertices and edge midpoints on
# (or a pad's width from) cell borders; repeated points make zero-length
# edges.
lattice = st.integers(min_value=0, max_value=16).map(lambda k: k * 0.25)


@st.composite
def border_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    xs = draw(st.lists(lattice, min_size=n, max_size=n))
    ys = draw(st.lists(lattice, min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=60,
            unique=True,
        )
    )
    weights = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
    graph = RoadNetwork(xs, ys, [(u, v, draw(weights)) for u, v in pairs])
    if pairs and draw(st.booleans()):
        u, v = draw(st.sampled_from(pairs))
        graph.set_weight(u, v, draw(weights))
    if draw(st.booleans()):
        graph.freeze()
    return graph


@given(border_graphs(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_vectorised_build_equals_scalar_on_border_graphs(graph, levels):
    assert_same_build(graph, levels)


class TestSharedGrid:
    def test_same_object_until_mutation(self, ring):
        graph = ring.copy()
        grid = graph.grid_index(4)
        assert graph.grid_index(4) is grid
        assert graph.grid_index(3) is not grid
        graph.freeze()  # freezing does not bump the version
        assert graph.grid_index(4) is grid
        u, v, w = next(graph.edges())
        graph.set_weight(u, v, w + 10.0)
        fresh = graph.grid_index(4)
        assert fresh is not grid
        assert fingerprint(fresh) == fingerprint(GridIndex(graph, levels=4))
        root_before = grid.summary((0, 0), level=0).weight
        root_after = fresh.summary((0, 0), level=0).weight
        assert math.isclose(root_after - root_before, 10.0, rel_tol=1e-9)

    def test_constructor_still_builds_a_private_grid(self, ring):
        graph = ring.copy()
        assert GridIndex(graph, levels=4) is not graph.grid_index(4)

    def test_pickled_network_carries_no_grid(self, ring):
        graph = ring.copy()
        bare = pickle.dumps(graph)
        graph.grid_index(5)
        data = pickle.dumps(graph)
        assert len(data) == len(bare)
        assert b"GridIndex" not in data
        clone = pickle.loads(data)
        assert fingerprint(clone.grid_index(5)) == fingerprint(graph.grid_index(5))

    def test_decomposer_and_session_share_one_grid(self, ring):
        graph = ring.copy()
        levels = auto_levels(graph)
        decomposer = SearchSpaceDecomposer(graph, levels=5)
        with StreamingQueryService(
            graph, workers=0, clock="simulated", decomposer=decomposer
        ) as service:
            backend = service.backend
            assert backend.decomposer.oracle.grid is backend.session._grid
            assert backend.session._grid is graph.grid_index(5)
        assert SearchSpaceDecomposer(graph).oracle.grid is graph.grid_index(levels)

    def test_service_keeps_its_grid_across_epochs(self, grid6):
        graph = grid6.copy()
        timeline = TrafficTimeline(graph, seed=9)
        for at in (0.3, 0.6):
            timeline.schedule(at, congestion_snapshot(fraction=0.5))
        arrivals = PoissonArrivals(
            WorkloadGenerator(graph, seed=2), rate=200.0, seed=4
        ).duration(1.0)
        with StreamingQueryService(
            graph, workers=0, clock="simulated", window_seconds=0.1,
            timeline=timeline,
        ) as service:
            backend = service.backend
            grid = backend.decomposer.oracle.grid
            session_grid = backend.session._grid
            version = graph.version
            report = service.run(arrivals)
        assert report.unaccounted_queries == 0
        assert graph.version != version
        assert backend.decomposer.oracle.grid is grid
        assert backend.session._grid is session_grid
        assert graph.grid_index(grid.levels) is not grid
