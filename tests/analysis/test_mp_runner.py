"""Exactness of multiprocess batch answering.

These checks once drove a separate runner; the one process engine is now
:class:`~repro.parallel.ParallelBatchEngine`, so they drive it directly.
"""

import math

import pytest

from repro.core.coclustering import CoClusteringDecomposer
from repro.core.search_space import SearchSpaceDecomposer
from repro.exceptions import ConfigurationError
from repro.parallel import ParallelBatchEngine
from repro.search.dijkstra import dijkstra


@pytest.fixture(scope="module")
def decomposition(ring, ring_batch):
    return SearchSpaceDecomposer(ring).decompose(ring_batch)


def run_engine(graph, work, **options):
    with ParallelBatchEngine(graph, **options) as engine:
        return engine.execute(work)


class TestParallelLocalCache:
    def test_exact_answers_across_processes(self, ring, ring_batch, decomposition):
        outcome = run_engine(
            ring,
            decomposition,
            answerer_kind="local-cache",
            answerer_kwargs={"cache_bytes": 10**6},
            workers=2,
            min_queries_per_worker=10,
        )
        assert outcome.report.workers == 2
        assert outcome.answer.num_queries == len(ring_batch)
        for q, r in outcome.answer.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)

    def test_falls_back_to_one_worker_for_small_batches(self, ring, decomposition):
        outcome = run_engine(
            ring, decomposition, workers=8, min_queries_per_worker=10**6
        )
        assert outcome.report.workers == 1

    def test_accounting_aggregated(self, ring, decomposition, ring_batch):
        outcome = run_engine(
            ring,
            decomposition,
            answerer_kwargs={"cache_bytes": 10**6},
            workers=2,
            min_queries_per_worker=10,
        )
        answer = outcome.answer
        assert answer.cache_hits + answer.cache_misses == len(ring_batch)
        assert answer.visited > 0
        assert answer.num_clusters == len(decomposition.clusters)


class TestParallelR2R:
    def test_error_bound_survives_processes(self, ring, ring_workload):
        from repro.queries.workload import band_for_network

        lo, hi = band_for_network(ring, "r2r")
        batch = ring_workload.batch(40, min_dist=lo, max_dist=hi)
        cc = CoClusteringDecomposer(ring, eta=0.05).decompose(batch)
        outcome = run_engine(
            ring,
            cc,
            answerer_kind="r2r",
            answerer_kwargs={"eta": 0.05, "build_paths": False},
            workers=2,
            min_queries_per_worker=5,
        )
        assert outcome.answer.num_queries == len(batch)
        for q, r in outcome.answer.answers:
            truth = dijkstra(ring, q.source, q.target).distance
            assert r.distance <= truth * 1.05 + 1e-9


class TestValidation:
    def test_bad_workers(self, ring):
        with pytest.raises(ConfigurationError):
            ParallelBatchEngine(ring, workers=0)

    def test_bad_kind(self, ring):
        with pytest.raises(ConfigurationError):
            ParallelBatchEngine(ring, answerer_kind="quantum")
