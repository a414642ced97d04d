"""Unit tests for ALT landmarks: the dict :class:`LandmarkIndex` and the
per-snapshot :class:`SnapshotLandmarks` miss heuristic."""

import math
import pickle

import pytest

from repro.core.cache import PathCache
from repro.core.clusters import QueryCluster
from repro.core.local_cache import LocalCacheAnswerer
from repro.exceptions import DeadlineExceededError, IndexConstructionError
from repro.network.generators import beijing_like
from repro.network.graph import RoadNetwork
from repro.obs import MetricsRegistry, use_registry
from repro.queries.query import Query
from repro.resilience.deadline import Deadline, use_deadline
from repro.search import landmarks as landmarks_module
from repro.search import np_kernels
from repro.search.astar import a_star
from repro.search.csr_kernels import csr_dijkstra, csr_sssp_distances
from repro.search.dijkstra import dijkstra
from repro.search.landmarks import (
    MIN_LENGTH_SHARE,
    NUM_LANDMARKS,
    VECTOR_MEMO,
    LandmarkIndex,
    SnapshotLandmarks,
    landmark_a_star,
    landmark_heuristic,
    snapshot_landmarks,
)
from repro.search.np_kernels import BACKEND_KNOB, np_available

needs_numpy = pytest.mark.skipif(not np_available(), reason="numpy not installed")


@pytest.fixture(scope="module")
def landmarks(ring):
    return LandmarkIndex(ring, num_landmarks=4, seed=2)


class TestBounds:
    def test_lower_bound_is_admissible(self, ring, landmarks):
        for s, t in [(0, 70), (12, 140), (99, 3), (50, 50)]:
            truth = dijkstra(ring, s, t).distance
            assert landmarks.lower_bound(s, t) <= truth + 1e-9

    def test_bound_to_self_is_zero(self, ring, landmarks):
        for v in (0, 10, 100):
            assert landmarks.lower_bound(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_bound_nonnegative(self, ring, landmarks):
        for s, t in [(5, 80), (80, 5)]:
            assert landmarks.lower_bound(s, t) >= 0.0

    def test_tighter_than_euclidean_somewhere(self, ring, landmarks):
        """ALT should beat the Euclidean bound for at least some pair."""
        wins = 0
        for s in range(0, ring.num_vertices, 11):
            for t in range(3, ring.num_vertices, 13):
                if landmarks.lower_bound(s, t) > ring.heuristic(s, t) + 1e-9:
                    wins += 1
        assert wins > 0


class TestAStarIntegration:
    def test_astar_with_alt_is_exact(self, ring, landmarks):
        for s, t in [(0, 70), (12, 140), (99, 3)]:
            truth = dijkstra(ring, s, t).distance
            r = a_star(ring, s, t, heuristic=landmarks.heuristic_to(t))
            assert math.isclose(r.distance, truth, rel_tol=1e-12)

    def test_alt_visits_no_more_than_dijkstra(self, ring, landmarks):
        total_alt = total_dij = 0
        for s, t in [(0, 70), (12, 140), (99, 3)]:
            total_alt += a_star(ring, s, t, heuristic=landmarks.heuristic_to(t)).visited
            total_dij += dijkstra(ring, s, t).visited
        assert total_alt <= total_dij


class TestLifecycle:
    def test_selection_spread(self, ring, landmarks):
        assert len(set(landmarks.landmarks)) == 4

    def test_stale_flag(self, ring):
        g = ring.copy()
        lm = LandmarkIndex(g, num_landmarks=2, seed=0)
        assert not lm.stale
        g.set_weight(*[(u, v) for u, v, _ in g.edges()][0], 99.0)
        assert lm.stale

    def test_zero_landmarks_rejected(self, ring):
        with pytest.raises(IndexConstructionError):
            LandmarkIndex(ring, num_landmarks=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(IndexConstructionError):
            LandmarkIndex(RoadNetwork([], []), num_landmarks=1)


# ----------------------------------------------------------------------
# Per-snapshot provider
# ----------------------------------------------------------------------
@pytest.fixture()
def frozen_ring(ring, monkeypatch):
    """A private frozen copy of the ring network under ``auto``."""
    monkeypatch.setenv(BACKEND_KNOB, "auto")
    graph = ring.copy()
    graph.freeze()
    return graph


@pytest.fixture()
def oracle_ring(ring):
    """An unfrozen copy of the ring network: the dict-Dijkstra oracle."""
    return ring.copy()


def one_way_graph():
    """Vertex 3 is a sink (no way out) and vertex 4 is isolated, so some
    landmark rows hold infinities in both directions."""
    xs = [0.0, 1.0, 2.0, 1.0, 5.0]
    ys = [0.0, 0.0, 0.0, 1.0, 5.0]
    g = RoadNetwork(xs, ys)
    for u, v, w in [(0, 1, 1.0), (1, 0, 1.5), (1, 2, 1.2), (2, 1, 1.1),
                    (2, 3, 2.0), (0, 3, 4.0)]:
        g.add_edge(u, v, w)
    return g


@needs_numpy
class TestSnapshotLandmarks:
    def test_rows_are_exact_sssp_rows(self, frozen_ring):
        csr = frozen_ring.freeze()
        provider = SnapshotLandmarks(csr)
        k = len(provider.landmarks)
        assert k == NUM_LANDMARKS
        assert len(set(provider.landmarks)) == k
        for i, lm in enumerate(provider.landmarks):
            forward = csr_sssp_distances(csr, lm)
            backward = csr_sssp_distances(csr, lm, backward=True)
            assert (-provider.rows[i]).tolist() == forward
            assert provider.rows[k + i].tolist() == backward

    def test_bound_is_admissible_and_consistent(self, frozen_ring):
        csr = frozen_ring.freeze()
        provider = SnapshotLandmarks(csr)
        for t in (0, 33, 101, 144):
            h = provider.heuristic(t)
            truth = csr_sssp_distances(csr, t, backward=True)
            assert h(t) == 0.0
            for u in range(csr.num_vertices):
                assert 0.0 <= h(u) <= truth[u] * (1 + 1e-12)
            for u, v, w in csr.edges():
                assert h(u) <= w + h(v) + 1e-9

    def test_tighter_than_euclidean_on_average(self, frozen_ring):
        csr = frozen_ring.freeze()
        alt = euclid = 0
        for s, t in [(0, 70), (12, 140), (99, 3), (5, 120), (130, 40)]:
            alt += landmark_a_star(frozen_ring, s, t).visited
            euclid += a_star(frozen_ring, s, t).visited
        assert alt < euclid
        assert csr._landmarks is not None  # noqa: SLF001

    def test_matches_dijkstra_bit_for_bit(self, monkeypatch):
        monkeypatch.setenv(BACKEND_KNOB, "auto")
        graph = beijing_like("small", seed=4)
        oracle = graph.copy()
        csr = graph.freeze()
        n = csr.num_vertices
        for i in range(150):
            s, t = (i * 7919) % n, (i * 104729 + 13) % n
            want = dijkstra(oracle, s, t)
            got = landmark_a_star(graph, s, t)
            assert got.distance == want.distance
            assert got.path == a_star(graph, s, t).path
            assert got.path == csr_dijkstra(csr, s, t).path

    def test_unreachable_rows_stay_exact(self, monkeypatch):
        monkeypatch.setenv(BACKEND_KNOB, "auto")
        graph = one_way_graph()
        oracle = graph.copy()
        graph.freeze()
        for s in range(5):
            for t in range(5):
                got = landmark_a_star(graph, s, t)
                want = dijkstra(oracle, s, t)
                assert got.distance == want.distance, (s, t)
                assert got.path == want.path, (s, t)

    def test_one_build_per_snapshot_outside_query_counts(self, frozen_ring):
        registry = MetricsRegistry()
        with use_registry(registry):
            for t in (5, 60, 140):
                landmark_heuristic(frozen_ring, 0, t)
        counters = registry.snapshot().counters
        assert counters["search.landmark_builds"] == 1
        assert "search.heap_pops" not in counters
        assert "search.runs" not in counters
        assert registry.snapshot().histograms["search.landmark_build_s"]["count"] == 1

    def test_build_outlives_a_query_deadline(self, frozen_ring, oracle_ring, monkeypatch):
        """A query budget shorter than the build neither cuts the build nor
        makes the next miss repeat it: the snapshot keeps one provider."""
        now = [0.0]
        sweep = landmarks_module._sssp_rows  # noqa: SLF001

        def slow_sweep(*args, **kwargs):
            now[0] += 10.0  # each build sweep outlasts the 1 s budget
            return sweep(*args, **kwargs)

        monkeypatch.setattr(landmarks_module, "_sssp_rows", slow_sweep)
        csr = frozen_ring.freeze()
        query = Query(0, 70)
        cluster = QueryCluster(queries=[query])
        answerer = LocalCacheAnswerer(frozen_ring, cache_bytes=10_000)
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_deadline(Deadline(1.0, clock=lambda: now[0])):
                # The build completes; the miss then finds its budget spent.
                with pytest.raises(DeadlineExceededError):
                    answerer.answer_cluster(cluster, PathCache(frozen_ring, 10_000))
            provider = csr._landmarks  # noqa: SLF001
            assert isinstance(provider, SnapshotLandmarks)
            assert csr.euclidean(0, 70) >= provider.min_length  # a long miss
            with use_deadline(Deadline(1.0, clock=lambda: now[0])):
                [(_, got)] = answerer.answer_cluster(cluster, PathCache(frozen_ring, 10_000))
        assert got.distance == dijkstra(oracle_ring, 0, 70).distance
        counters = registry.snapshot().counters
        assert counters["search.landmark_builds"] == 1
        assert counters["search.heuristic.alt"] == 2  # both tries used the bound

    def test_short_misses_keep_the_euclidean_bound(self, frozen_ring):
        csr = frozen_ring.freeze()
        landmark_heuristic(frozen_ring, 0, 70)
        gate = csr._landmarks.min_length  # noqa: SLF001
        x0, y0, x1, y1 = csr.extent()
        assert gate == pytest.approx(MIN_LENGTH_SHARE * max(x1 - x0, y1 - y0))
        pairs = [(s, t) for s in range(0, 145, 7) for t in range(3, 145, 11)]
        short = [(s, t) for s, t in pairs if csr.euclidean(s, t) < gate]
        long = [(s, t) for s, t in pairs if csr.euclidean(s, t) >= gate]
        assert short and long
        for s, t in short:
            assert landmark_heuristic(frozen_ring, s, t) is None
            assert landmark_a_star(frozen_ring, s, t).visited == a_star(
                frozen_ring, s, t
            ).visited
        for s, t in long:
            assert landmark_heuristic(frozen_ring, s, t) is not None

    def test_heuristic_counters_split_a_star_calls(self, frozen_ring, ring):
        registry = MetricsRegistry()
        with use_registry(registry):
            landmark_a_star(frozen_ring, 0, 70)
            landmark_a_star(frozen_ring, 3, 99)
            a_star(frozen_ring, 0, 70)
            landmark_a_star(ring.copy(), 0, 70)  # never frozen: Euclidean
        counters = registry.snapshot().counters
        assert counters["search.heuristic.alt"] == 2
        assert counters["search.heuristic.euclid"] == 2
        assert counters["search.runs"] == 4

    def test_new_version_gets_new_provider(self, frozen_ring):
        first = frozen_ring.freeze()
        landmark_heuristic(frozen_ring, 0, 3)
        old = first._landmarks  # noqa: SLF001
        assert old is not None
        u, v, w = next(iter(frozen_ring.edges()))
        frozen_ring.set_weight(u, v, w * 0.5)
        assert landmark_heuristic(frozen_ring, 0, 3) is None  # stale snapshot
        second = frozen_ring.freeze()
        landmark_heuristic(frozen_ring, 0, 3)
        assert second is not first
        assert second._landmarks is not None  # noqa: SLF001
        assert second._landmarks is not old  # noqa: SLF001

    def test_memo_hit_is_bit_identical_to_a_fresh_vector(self, frozen_ring):
        provider = SnapshotLandmarks(frozen_ring.freeze())
        registry = MetricsRegistry()
        with use_registry(registry):
            first = provider.heuristic(70)
            again = provider.heuristic(70)
        fresh = SnapshotLandmarks(frozen_ring.freeze()).heuristic(70)
        for u in range(frozen_ring.num_vertices):
            assert again(u) == first(u) == fresh(u), u
        counters = registry.snapshot().counters
        assert counters["search.heuristic.vector_reused"] == 1
        assert "search.runs" not in counters
        assert "search.heap_pops" not in counters

    def test_memo_keeps_the_last_targets_only(self, frozen_ring):
        provider = SnapshotLandmarks(frozen_ring.freeze())
        memo = provider._vectors  # noqa: SLF001
        registry = MetricsRegistry()
        with use_registry(registry):
            for t in range(3 * VECTOR_MEMO):
                provider.heuristic(t)
                assert len(memo) <= VECTOR_MEMO
            assert list(memo) == list(range(2 * VECTOR_MEMO, 3 * VECTOR_MEMO))
            provider.heuristic(2 * VECTOR_MEMO)  # a hit moves to the back
            provider.heuristic(0)  # evicts the least recently used
        assert 2 * VECTOR_MEMO in memo and 2 * VECTOR_MEMO + 1 not in memo
        assert len(memo) == VECTOR_MEMO
        assert registry.snapshot().counters["search.heuristic.vector_reused"] == 1

    def test_new_version_starts_with_an_empty_memo(self, frozen_ring):
        first = frozen_ring.freeze()
        landmark_heuristic(frozen_ring, 0, 70)
        assert 70 in first._landmarks._vectors  # noqa: SLF001
        u, v, w = next(iter(frozen_ring.edges()))
        frozen_ring.set_weight(u, v, w * 0.5)
        second = frozen_ring.freeze()
        snapshot_landmarks(frozen_ring)
        assert second._landmarks._vectors == {}  # noqa: SLF001

    def test_not_pickled_and_dropped_on_release(self, frozen_ring):
        csr = frozen_ring.freeze()
        before = len(pickle.dumps(csr))
        landmark_heuristic(frozen_ring, 0, 3)
        assert len(pickle.dumps(csr)) == before
        assert pickle.loads(pickle.dumps(csr))._landmarks is None  # noqa: SLF001
        csr.release()
        assert csr._landmarks is None  # noqa: SLF001


class TestEuclideanFallback:
    def test_csr_backend_keeps_euclidean(self, ring, monkeypatch):
        monkeypatch.setenv(BACKEND_KNOB, "csr")
        graph = ring.copy()
        csr = graph.freeze()
        assert landmark_heuristic(graph, 0, 70) is None
        assert landmark_a_star(graph, 0, 70).visited == a_star(graph, 0, 70).visited
        assert csr._landmarks is None  # noqa: SLF001

    def test_without_numpy_keeps_euclidean(self, ring, monkeypatch):
        monkeypatch.setenv(BACKEND_KNOB, "auto")
        monkeypatch.setattr(np_kernels, "_numpy", None)
        graph = ring.copy()
        graph.freeze()
        assert landmark_heuristic(graph, 0, 70) is None
        got = landmark_a_star(graph, 0, 70)
        assert got.visited == a_star(graph, 0, 70).visited
        assert got.distance == dijkstra(ring, 0, 70).distance

    def test_mutable_graph_keeps_euclidean(self, ring):
        assert landmark_heuristic(ring.copy(), 0, 70) is None
