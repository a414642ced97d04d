"""Unit tests for the Local Cache batch answering."""

import math

import pytest

from repro.core.local_cache import LocalCacheAnswerer
from repro.core.search_space import SearchSpaceDecomposer
from repro.core.zigzag import ZigzagDecomposer
from repro.exceptions import ConfigurationError
from repro.network.generators import beijing_like
from repro.queries.workload import WorkloadGenerator
from repro.search.dijkstra import dijkstra
from repro.search.np_kernels import BACKEND_KNOB, np_available

from tests.conftest import assert_valid_path


@pytest.fixture(scope="module")
def sse_decomposition(ring, ring_batch):
    return SearchSpaceDecomposer(ring).decompose(ring_batch)


class TestCorrectness:
    def test_all_queries_answered(self, ring, ring_batch, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        assert answer.num_queries == len(ring_batch)

    def test_all_answers_exact_shortest(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        for q, r in answer.answers:
            assert r.exact
            truth = dijkstra(ring, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)

    def test_zigzag_decomposition_also_exact(self, ring, ring_batch):
        d = ZigzagDecomposer(ring).decompose(ring_batch)
        answer = LocalCacheAnswerer(ring).answer(d, method="zlc")
        assert answer.method == "zlc"
        for q, r in answer.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)

    def test_random_order_exact_too(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring, order="random", seed=3).answer(
            sse_decomposition
        )
        for q, r in answer.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)


class TestCacheBehaviour:
    def test_hits_are_counted(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        assert answer.cache_hits + answer.cache_misses == answer.num_queries
        assert 0.0 <= answer.hit_ratio <= 1.0

    def test_cache_hits_cost_zero_vnn(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        hits = [r for _, r in answer.answers if r.visited == 0 and r.path]
        assert len(hits) >= answer.cache_hits

    def test_longest_first_ordering(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring, order="longest").answer(sse_decomposition)
        # Within the first cluster, processed lengths must be non-increasing.
        first = sse_decomposition.clusters[0]
        n = len(first)
        lengths = [
            ring.euclidean(q.source, q.target) for q, _ in answer.answers[:n]
        ]
        assert lengths == sorted(lengths, reverse=True)

    def test_budget_limits_cache(self, ring, sse_decomposition):
        tiny = LocalCacheAnswerer(ring, cache_bytes=256).answer(sse_decomposition)
        big = LocalCacheAnswerer(ring, cache_bytes=10**7).answer(sse_decomposition)
        assert tiny.cache_bytes <= 256 * len(sse_decomposition.clusters)
        assert big.hit_ratio >= tiny.hit_ratio

    def test_visited_totals_accumulate(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        assert answer.visited == sum(r.visited for _, r in answer.answers)

    def test_num_clusters_recorded(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        assert answer.num_clusters == len(sse_decomposition.clusters)

    def test_decompose_seconds_propagated(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring).answer(sse_decomposition)
        assert answer.decompose_seconds == sse_decomposition.elapsed_seconds
        assert answer.total_seconds >= answer.answer_seconds


class TestSuperVertices:
    def test_super_vertex_raises_hit_ratio(self, ring, sse_decomposition):
        exact = LocalCacheAnswerer(ring).answer(sse_decomposition)
        snapped = LocalCacheAnswerer(ring, super_snap_radius=1.5).answer(
            sse_decomposition
        )
        assert snapped.hit_ratio >= exact.hit_ratio

    def test_super_vertex_answers_are_bounded(self, ring, sse_decomposition):
        """Snapped answers may be inexact but must stay near the truth."""
        snapped = LocalCacheAnswerer(ring, super_snap_radius=1.0).answer(
            sse_decomposition
        )
        for q, r in snapped.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            if r.exact:
                assert math.isclose(r.distance, truth, rel_tol=1e-12)
            else:
                # Both endpoints moved by at most the snap radius along
                # cached paths; allow a generous but finite tolerance.
                assert abs(r.distance - truth) <= 8.0


class TestValidation:
    def test_bad_order_rejected(self, ring):
        with pytest.raises(ConfigurationError):
            LocalCacheAnswerer(ring, order="sorted?")

    def test_given_order_keeps_decomposition_order(self, ring, sse_decomposition):
        answer = LocalCacheAnswerer(ring, order="given").answer(sse_decomposition)
        expected = [q for c in sse_decomposition for q in c.queries]
        assert [q for q, _ in answer.answers] == expected


@pytest.fixture(scope="module")
def hotspot_case():
    """A frozen ``small`` network, its 400-query cache-band hotspot batch
    (SSE-decomposed) and the dict-Dijkstra distance of every query."""
    graph = beijing_like("small", seed=0)
    oracle = graph.copy()  # never frozen: the dict-kernel oracle
    graph.freeze()
    batch = WorkloadGenerator(graph, seed=3).cache_band(400)
    decomposition = SearchSpaceDecomposer(graph).decompose(batch)
    truth = {q: dijkstra(oracle, q.source, q.target).distance for q in batch}
    return graph, oracle, decomposition, truth


class TestBatchOneToMany:
    """``batch_one_to_many=True`` against the dict oracle, with the joint
    numpy sweep answering leftover singletons (``auto``) and without it
    (``csr``: per-query A*)."""

    @pytest.mark.parametrize("backend", ["auto", "csr"])
    def test_matches_dijkstra(self, monkeypatch, hotspot_case, backend):
        graph, oracle, decomposition, truth = hotspot_case
        monkeypatch.setenv(BACKEND_KNOB, backend)
        sequential = LocalCacheAnswerer(graph, cache_bytes=200_000).answer(
            decomposition
        )
        batched = LocalCacheAnswerer(
            graph, cache_bytes=200_000, batch_one_to_many=True
        ).answer(decomposition)

        # Sequential: a miss is searched (exact), a hit is a cached
        # sub-path whose re-summed length may differ in the last bits.
        cached = [(q, r) for q, r in sequential.answers if r.visited == 0]
        assert len(cached) == sequential.cache_hits == 99
        for q, r in sequential.answers:
            assert r.path[0] == q.source and r.path[-1] == q.target
            if r.visited == 0:
                assert math.isclose(r.distance, truth[q], rel_tol=1e-9)
            else:
                assert r.distance == truth[q]

        # Batched: every lookup precedes every insert within a cluster,
        # so nothing hits and every answer is searched.
        assert batched.cache_hits == 0
        assert batched.num_queries == 400
        for q, r in batched.answers:
            assert r.distance == truth[q]
            assert_valid_path(oracle, r.path, q.source, q.target, r.distance)

        # Shared execution costs VNN here: the singletons' joint sweep
        # is plain Dijkstra, where the scalar fallback runs A*.  With
        # numpy the long misses search under the landmark bound; ``csr``
        # keeps the Euclidean bound for every miss.
        joint = backend == "auto" and np_available()
        assert sequential.visited == (14_832 if joint else 29_012)
        assert batched.visited == (93_517 if joint else 43_114)
