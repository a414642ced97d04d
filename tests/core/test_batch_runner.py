"""Integration tests: the BatchProcessor facade runs every pipeline."""

import math

import pytest

from repro.core.batch_runner import METHODS, BatchProcessor
from repro.exceptions import ConfigurationError
from repro.network.grid import auto_levels
from repro.search.dijkstra import dijkstra

EXACT_METHODS = ("astar", "dijkstra", "zlc", "slc-s", "slc-r", "zigzag-petal")
APPROX_METHODS = ("r2r-s", "r2r-r", "k-path", "group")


@pytest.fixture(scope="module")
def processor(ring):
    return BatchProcessor(ring, seed=1)


@pytest.fixture(scope="module")
def oracle(ring, ring_batch):
    return {
        q: dijkstra(ring, q.source, q.target).distance for q in ring_batch
    }


class TestAllMethodsRun:
    @pytest.mark.parametrize("method", METHODS)
    def test_method_answers_batch(self, processor, ring_batch, method):
        answer = processor.process(ring_batch, method)
        expected = len(ring_batch)
        if method == "gc":
            expected = len(ring_batch) - int(len(ring_batch) * 0.2)
        assert answer.num_queries == expected
        assert answer.method == method

    def test_unknown_method_rejected(self, processor, ring_batch):
        with pytest.raises(ConfigurationError):
            processor.process(ring_batch, "teleport")


class TestExactMethods:
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_distances_match_oracle(self, processor, ring_batch, oracle, method):
        answer = processor.process(ring_batch, method)
        for q, r in answer.answers:
            assert math.isclose(r.distance, oracle[q], rel_tol=1e-12), (method, q)

    def test_gc_answers_match_oracle(self, processor, ring_batch, oracle):
        answer = processor.process(ring_batch, "gc")
        for q, r in answer.answers:
            assert math.isclose(r.distance, oracle[q], rel_tol=1e-12)


class TestApproxMethods:
    @pytest.mark.parametrize("method", APPROX_METHODS)
    def test_distances_at_least_truth(self, processor, ring_batch, oracle, method):
        answer = processor.process(ring_batch, method)
        for q, r in answer.answers:
            if math.isinf(r.distance):
                continue
            assert r.distance >= oracle[q] - 1e-9, (method, q)

    def test_r2r_error_bounded(self, processor, ring_batch, oracle):
        answer = processor.process(ring_batch, "r2r-s")
        for q, r in answer.answers:
            assert r.distance <= oracle[q] * 1.05 + 1e-9


class TestConfiguration:
    def test_explicit_cache_bytes_respected(self, ring, ring_batch):
        p = BatchProcessor(ring, cache_bytes=512)
        answer = p.process(ring_batch, "slc-s")
        assert answer.cache_bytes <= 512 * answer.num_clusters

    def test_super_snap_radius_plumbs_through(self, ring, ring_batch):
        snapped = BatchProcessor(ring, super_snap_radius=1.5).process(
            ring_batch, "slc-s"
        )
        exact = BatchProcessor(ring).process(ring_batch, "slc-s")
        assert snapped.hit_ratio >= exact.hit_ratio

    @pytest.mark.parametrize("method", ("slc-s", "zlc"))
    def test_setup_seconds_reported_outside_total(self, ring, ring_batch, method):
        graph = ring.copy()
        sized = BatchProcessor(graph).process(ring_batch, method)
        assert sized.setup_seconds > 0
        assert sized.summary()["setup_seconds"] == sized.setup_seconds
        assert sized.total_seconds == sized.decompose_seconds + sized.answer_seconds
        explicit = BatchProcessor(graph, cache_bytes=4096)
        explicit.process(ring_batch, method)
        again = explicit.process(ring_batch, method)
        assert again.setup_seconds < sized.setup_seconds
        assert again.setup_seconds < 0.01

    def test_slc_s_reuses_the_grid_of_the_current_version(self, ring, ring_batch):
        graph = ring.copy()
        processor = BatchProcessor(graph, cache_bytes=4096)
        processor.process(ring_batch, "slc-s")
        grid = graph.grid_index(auto_levels(graph))
        processor.process(ring_batch, "slc-s")
        assert graph.grid_index(auto_levels(graph)) is grid

    def test_methods_constant_is_complete(self, processor, ring_batch):
        for method in METHODS:
            processor.process(ring_batch[:10], method)
