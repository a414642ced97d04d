"""The paper's answerers with the landmark (ALT) miss heuristic.

On a frozen hotspot batch the Local Cache (sequential and
``batch_one_to_many``) and R2R search their misses under the snapshot's
landmark bound with numpy (``auto``) and under the Euclidean bound with
``REPRO_KERNEL=csr``.  Either way every searched answer equals dict
Dijkstra (``==``), R2R stays within ``1 + eta``, and the two heuristics
find the very same paths, so the caches fill identically and only the
visited counts move.
"""

import math

import pytest

from repro.core.batch_runner import BatchProcessor
from repro.core.coclustering import CoClusteringDecomposer
from repro.core.local_cache import LocalCacheAnswerer
from repro.core.r2r import RegionToRegionAnswerer
from repro.core.search_space import SearchSpaceDecomposer
from repro.network.generators import beijing_like
from repro.obs import MetricsRegistry, use_registry
from repro.queries.workload import Hotspot, WorkloadGenerator, band_for_network
from repro.search.dijkstra import dijkstra
from repro.search.np_kernels import BACKEND_KNOB, np_available
from tests.conftest import assert_valid_path

BACKENDS = ["auto", "csr"]
#: Regions hold a second endpoint on the ``small`` map (vertices ~2.7 km
#: apart) only once eta is this wide.
ETA = 0.3


def answers_key(batch):
    return [(q, r.distance, tuple(r.path), r.exact) for q, r in batch.answers]


def alt_active(backend):
    return backend == "auto" and np_available()


@pytest.fixture(scope="module")
def case():
    """A frozen ``small`` map, a cache-band batch for the Local Cache, a
    tight R2R-band batch and the dict-Dijkstra distance of every query."""
    graph = beijing_like("small", seed=0)
    oracle = graph.copy()  # never frozen: the dict-kernel oracle
    graph.freeze()
    cache_batch = WorkloadGenerator(graph, seed=3).cache_band(300)
    min_x, min_y, max_x, max_y = graph.extent()
    span = max(max_x - min_x, max_y - min_y)
    cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    corners = [  # two hotspots 0.3 of the extent apart: dumbbells
        Hotspot(cx - 0.15 * span, cy - 0.15 * span, 0.02 * span),
        Hotspot(cx + 0.15 * span, cy + 0.15 * span, 0.02 * span),
    ]
    lo, hi = band_for_network(graph, "r2r")
    r2r_batch = WorkloadGenerator(
        graph, hotspots=corners, hotspot_fraction=1.0, seed=8
    ).batch(120, min_dist=lo, max_dist=hi)
    sse = SearchSpaceDecomposer(graph).decompose(cache_batch)
    cocluster = CoClusteringDecomposer(graph, eta=ETA).decompose(r2r_batch)
    truth = {
        q: dijkstra(oracle, q.source, q.target).distance
        for q in list(cache_batch) + list(r2r_batch)
    }
    return graph, oracle, sse, cocluster, truth


@pytest.mark.parametrize("backend", BACKENDS)
class TestLocalCache:
    def test_sequential_matches_dijkstra(self, monkeypatch, case, backend):
        graph, oracle, sse, _, truth = case
        monkeypatch.setenv(BACKEND_KNOB, backend)
        registry = MetricsRegistry()
        with use_registry(registry):
            answer = LocalCacheAnswerer(graph, cache_bytes=200_000).answer(sse)
        assert answer.cache_misses > 0
        for q, r in answer.answers:
            if r.visited == 0:  # a cached sub-path, re-summed
                assert math.isclose(r.distance, truth[q], rel_tol=1e-9)
            else:
                assert r.distance == truth[q]
            assert_valid_path(oracle, r.path, q.source, q.target, r.distance)
        counters = registry.snapshot().counters
        misses = answer.cache_misses
        alt = counters.get("search.heuristic.alt", 0)
        assert alt + counters.get("search.heuristic.euclid", 0) == misses
        if alt_active(backend):
            assert alt > misses // 2  # the short misses keep the Euclidean bound
            assert counters["search.landmark_builds"] <= 1
        else:
            assert alt == 0
            assert "search.landmark_builds" not in counters

    def test_batched_matches_dijkstra(self, monkeypatch, case, backend):
        graph, oracle, sse, _, truth = case
        monkeypatch.setenv(BACKEND_KNOB, backend)
        answer = LocalCacheAnswerer(
            graph, cache_bytes=200_000, batch_one_to_many=True
        ).answer(sse)
        for q, r in answer.answers:
            assert r.distance == truth[q]
            assert_valid_path(oracle, r.path, q.source, q.target, r.distance)


def test_alt_paths_equal_euclidean_paths(monkeypatch, case):
    """Same answers, same cache contents, fewer visited vertices."""
    graph, _, sse, cocluster, _ = case
    runs = {}
    for backend in BACKENDS:
        monkeypatch.setenv(BACKEND_KNOB, backend)
        runs[backend] = (
            LocalCacheAnswerer(graph, cache_bytes=200_000).answer(sse),
            RegionToRegionAnswerer(graph, eta=ETA).answer(cocluster),
        )
    for alt, euclid in zip(runs["auto"], runs["csr"]):
        assert answers_key(alt) == answers_key(euclid)
        assert alt.cache_hits == euclid.cache_hits
        assert alt.cache_bytes == euclid.cache_bytes
        if np_available():
            assert alt.visited < euclid.visited
        else:
            assert alt.visited == euclid.visited


@pytest.mark.parametrize("backend", BACKENDS)
def test_r2r_exact_legs_and_eta_bound(monkeypatch, case, backend):
    graph, oracle, _, cocluster, truth = case
    monkeypatch.setenv(BACKEND_KNOB, backend)
    answer = RegionToRegionAnswerer(graph, eta=ETA).answer(cocluster)
    approximate = 0
    for q, r in answer.answers:
        if r.exact:
            assert r.distance == truth[q]
        else:
            approximate += 1
            # The three legs re-sum in another order: allow the last bits.
            assert truth[q] * (1 - 1e-12) <= r.distance
            assert r.distance <= (1 + ETA) * truth[q] * (1 + 1e-12)
        assert_valid_path(oracle, r.path, q.source, q.target, r.distance)
    assert approximate > 0


def test_two_workers_match_serial_and_build_their_own(monkeypatch):
    """Workers build their own landmarks; the parent ships none."""
    monkeypatch.setenv(BACKEND_KNOB, "auto")
    graph = beijing_like("small", seed=0)
    csr = graph.freeze()
    batch = WorkloadGenerator(graph, seed=3).cache_band(200)
    registry = MetricsRegistry()
    with use_registry(registry):
        parallel = BatchProcessor(graph, workers=2).process(batch, "slc-s")
    assert parallel.workers == 2
    assert csr._landmarks is None  # noqa: SLF001 - nothing built in the parent
    builds = registry.snapshot().counters.get("search.landmark_builds", 0)
    if np_available():
        assert 1 <= builds <= 2
    serial = BatchProcessor(graph).process(batch, "slc-s")
    assert answers_key(parallel) == answers_key(serial)
    assert parallel.visited == serial.visited
    assert parallel.cache_hits == serial.cache_hits


def test_engine_units_reuse_the_same_vectors_in_any_process(monkeypatch, case):
    """The vector memo is per process; each engine unit starts it empty, so
    in-process and pooled runs reuse (and count) the same vectors."""
    from repro.parallel import ParallelBatchEngine

    monkeypatch.setenv(BACKEND_KNOB, "auto")
    graph, _, sse, _, _ = case
    counts = {}
    for workers in (1, 2):
        registry = MetricsRegistry()
        with use_registry(registry):
            with ParallelBatchEngine(
                graph, workers=workers, answerer_kwargs={"cache_bytes": 200_000}
            ) as engine:
                engine.execute(sse)
        counts[workers] = registry.snapshot().counters.get(
            "search.heuristic.vector_reused", 0
        )
    assert counts[1] == counts[2]
    if np_available():
        assert counts[1] > 0
