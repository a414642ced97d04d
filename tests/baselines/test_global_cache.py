"""Unit tests for the Global Cache baseline."""

import math

import pytest

from repro.baselines.global_cache import GlobalCacheAnswerer, split_log_and_stream
from repro.search.dijkstra import dijkstra


class TestSplit:
    def test_default_twenty_percent(self, ring_batch):
        log, stream = split_log_and_stream(ring_batch)
        assert len(log) == int(len(ring_batch) * 0.2)
        assert len(log) + len(stream) == len(ring_batch)

    def test_custom_fraction(self, ring_batch):
        log, stream = split_log_and_stream(ring_batch, 0.5)
        assert len(log) == len(ring_batch) // 2

    def test_order_preserved(self, ring_batch):
        log, stream = split_log_and_stream(ring_batch)
        assert list(log) + list(stream) == list(ring_batch)


class TestBuild:
    def test_build_populates_cache(self, ring, ring_batch):
        log, _ = split_log_and_stream(ring_batch)
        gc = GlobalCacheAnswerer(ring)
        cache = gc.build(log)
        assert cache.num_paths > 0
        assert gc.cache_bytes == cache.size_bytes
        assert gc.build_seconds >= 0.0
        assert gc.build_visited > 0

    def test_build_skips_already_answerable(self, ring):
        from repro.queries.query import QuerySet

        # The second query is a sub-path of the first -> no second path.
        path = dijkstra(ring, 1, 100).path
        if len(path) < 3:
            pytest.skip("path too short on this network")
        log = QuerySet.from_pairs([(1, 100), (path[0], path[1])])
        gc = GlobalCacheAnswerer(ring)
        cache = gc.build(log)
        assert cache.num_paths == 1
        # Only the searched log query keeps its answer.
        assert list(gc.searched) == [(1, 100)]
        assert gc.searched[(1, 100)].path == path
        assert gc.searched[(1, 100)].visited == gc.build_visited

    def test_capacity_keeps_most_beneficial(self, ring, ring_batch):
        log, _ = split_log_and_stream(ring_batch, 0.5)
        unlimited = GlobalCacheAnswerer(ring)
        unlimited.build(log)
        limited = GlobalCacheAnswerer(
            ring, capacity_bytes=unlimited.cache_bytes // 2
        )
        limited.build(log)
        assert limited.cache_bytes <= unlimited.cache_bytes // 2
        assert limited.cache.num_paths < unlimited.cache.num_paths


class TestAnswer:
    def test_answers_are_exact(self, ring, ring_batch):
        log, stream = split_log_and_stream(ring_batch)
        gc = GlobalCacheAnswerer(ring)
        gc.build(log)
        answer = gc.answer(stream)
        assert answer.num_queries == len(stream)
        for q, r in answer.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)

    def test_answer_before_build_raises(self, ring, ring_batch):
        with pytest.raises(RuntimeError):
            GlobalCacheAnswerer(ring).answer(ring_batch)

    def test_static_cache_not_updated_by_stream(self, ring, ring_batch):
        log, stream = split_log_and_stream(ring_batch)
        gc = GlobalCacheAnswerer(ring)
        gc.build(log)
        before = gc.cache.num_paths
        gc.answer(stream)
        assert gc.cache.num_paths == before

    def test_hit_ratio_reported(self, ring, ring_batch):
        log, stream = split_log_and_stream(ring_batch)
        gc = GlobalCacheAnswerer(ring)
        gc.build(log)
        answer = gc.answer(stream)
        assert 0.0 <= answer.hit_ratio <= 1.0
        assert answer.cache_hits + answer.cache_misses == len(stream)
