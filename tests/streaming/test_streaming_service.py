"""StreamingQueryService end-to-end: accounting, exactness, resilience."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.network.generators import beijing_like, grid_city
from repro.network.timeline import TrafficTimeline, congestion_snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.queries.arrivals import PoissonArrivals, TimedQuery
from repro.queries.query import Query
from repro.queries.workload import WorkloadGenerator
from repro.resilience import CircuitBreaker, REASON_SHED, STAGE_ADMISSION
from repro.search.dijkstra import dijkstra
from repro.search.np_kernels import np_available
from repro.streaming import (
    TRIGGER_ADMISSION,
    StreamingQueryService,
    assemble_micro_batches,
)


@pytest.fixture(scope="module")
def stream_graph():
    return grid_city(6, 6, seed=1)


@pytest.fixture(scope="module")
def stream(stream_graph):
    workload = WorkloadGenerator(stream_graph, seed=2)
    return PoissonArrivals(workload, rate=150.0, seed=3).duration(2.0)


def run_service(graph, arrivals, **kwargs):
    kwargs.setdefault("window_seconds", 0.25)
    kwargs.setdefault("max_batch", 32)
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("clock", "simulated")
    with StreamingQueryService(graph, **kwargs) as service:
        return service.run(arrivals)


def assert_exact(graph, report):
    for q, r in report.answers:
        truth = dijkstra(graph, q.source, q.target).distance
        assert math.isclose(r.distance, truth, rel_tol=1e-9), (
            q, r.distance, truth,
        )


class TestAccounting:
    def test_every_arrival_answered_or_dead_lettered(self, stream_graph, stream):
        report = run_service(stream_graph, stream)
        assert report.total_arrivals == len(stream)
        assert report.unaccounted_queries == 0
        assert len(report.dead_letters) == 0
        assert report.answered_queries == len(stream)

    def test_answers_exact_against_dijkstra(self, stream_graph, stream):
        report = run_service(stream_graph, stream)
        assert_exact(stream_graph, report)

    def test_empty_stream(self, stream_graph):
        report = run_service(stream_graph, [])
        assert report.total_arrivals == 0
        assert report.windows == []
        assert report.qps == 0.0

    def test_negative_arrival_rejected(self, stream_graph):
        with pytest.raises(ConfigurationError):
            run_service(stream_graph, [TimedQuery(-1.0, Query(0, 1))])

    def test_invalid_queries_dead_lettered(self, stream_graph):
        n = stream_graph.num_vertices
        arrivals = [
            TimedQuery(0.1, Query(0, 5)),
            TimedQuery(0.2, Query(n + 3, 2)),  # out of range
        ]
        report = run_service(stream_graph, arrivals)
        assert report.answered_queries == 1
        assert len(report.dead_letters) == 1
        assert report.unaccounted_queries == 0


class TestDeterminism:
    def test_simulated_replay_is_identical(self, stream_graph, stream):
        first = run_service(stream_graph, stream)
        second = run_service(stream_graph, stream)
        assert first.distances() == second.distances()
        assert [
            (w.index, w.trigger, w.queries, w.cut_at) for w in first.windows
        ] == [
            (w.index, w.trigger, w.queries, w.cut_at) for w in second.windows
        ]
        assert first.latencies == second.latencies

    def test_fresh_replays_repeat_search_and_csr_counters(self, monkeypatch):
        """Two replays of one seeded stream, each on its own freshly built
        and frozen map under its own registry, count the same search work.
        Landmarks are per snapshot, so each replay builds its own and the
        traced exact counts repeat (the end-to-end benchmark exits 1 when
        they do not)."""
        monkeypatch.setenv("REPRO_KERNEL", "auto")

        def replay():
            graph = beijing_like("small", seed=0)
            graph.freeze()
            arrivals = PoissonArrivals(
                WorkloadGenerator(graph, seed=5), rate=200.0, seed=9
            ).duration(1.5)
            registry = MetricsRegistry()
            with use_registry(registry):
                report = run_service(graph, arrivals)
            assert report.unaccounted_queries == 0
            counters = registry.snapshot().counters
            return {
                name: value for name, value in counters.items()
                if name.startswith(("search.", "csr."))
            }

        first, second = replay(), replay()
        assert first == second
        assert first["search.heap_pops"] > 0
        if np_available():
            assert first["search.landmark_builds"] == 1
            assert first["search.heuristic.alt"] > 0

    def test_windows_match_pure_assembler_when_nothing_sheds(
        self, stream_graph, stream
    ):
        """With no service cost and a roomy queue, the online loop must
        produce exactly the windows of the offline replay function over
        the arrivals that were not sealed at admission."""
        report = run_service(stream_graph, stream)
        sealed_on_arrival = set()
        offset = 0
        for record in report.windows:
            if record.trigger == TRIGGER_ADMISSION:
                sealed_on_arrival.update(
                    id(q)
                    for q, _ in report.answers[offset:offset + record.queries]
                )
            offset += record.queries
        assert sealed_on_arrival, "stream should repeat enough to hit the cache"
        missed = [tq for tq in stream if id(tq.query) not in sealed_on_arrival]
        expected = assemble_micro_batches(missed, 0.25, 32)
        assert [
            (w.index, w.trigger, w.queries) for w in report.micro_batch_windows
        ] == [(w.index, w.trigger, len(w)) for w in expected]


class TestCrossWindowCache:
    def test_repeat_queries_hit_the_cache(self, stream_graph):
        q = Query(0, 30)
        arrivals = [TimedQuery(0.1 * i, q) for i in range(1, 11)]
        report = run_service(stream_graph, arrivals, window_seconds=0.2)
        assert report.stream_cache_hits > 0
        assert_exact(stream_graph, report)

    def test_cache_can_be_disabled(self, stream_graph, stream):
        report = run_service(stream_graph, stream, stream_cache_bytes=0)
        assert report.stream_cache_hits == 0
        assert report.stream_cache_misses == 0
        assert report.unaccounted_queries == 0


class TestShedding:
    def test_degrade_policy_stays_exact_under_overload(self, stream_graph, stream):
        report = run_service(
            stream_graph,
            stream,
            window_seconds=0.1,
            max_batch=8,
            queue_capacity=4,
            service_seconds_per_query=0.01,
        )
        assert report.shed_degraded > 0
        assert report.backpressure_stalls > 0
        assert report.unaccounted_queries == 0
        assert report.answered_queries == len(stream)
        assert_exact(stream_graph, report)

    def test_drop_policy_dead_letters_every_drop(self, stream_graph, stream):
        report = run_service(
            stream_graph,
            stream,
            window_seconds=0.1,
            max_batch=8,
            queue_capacity=4,
            shed_policy="drop",
            service_seconds_per_query=0.01,
        )
        assert report.shed_dropped > 0
        assert report.dropped_queries == report.shed_dropped
        assert report.unaccounted_queries == 0
        shed_letters = [d for d in report.dead_letters if d.reason == REASON_SHED]
        assert len(shed_letters) == report.shed_dropped
        assert all(d.stage == STAGE_ADMISSION for d in shed_letters)

    def test_degrade_then_drop_respects_budget(self, stream_graph, stream):
        report = run_service(
            stream_graph,
            stream,
            window_seconds=0.1,
            max_batch=8,
            queue_capacity=4,
            shed_policy="degrade-then-drop",
            degrade_budget=5,
            service_seconds_per_query=0.01,
        )
        assert report.shed_degraded == 5
        assert report.shed_dropped > 0
        assert report.unaccounted_queries == 0


class TestBreakerDegradation:
    def test_open_breaker_degrades_windows_exactly(self, stream_graph, stream):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=1e9)
        breaker.record_failure()  # trip it before traffic arrives
        report = run_service(stream_graph, stream, breaker=breaker)
        assert report.breaker_degraded_windows == len(report.windows)
        assert report.unaccounted_queries == 0
        assert_exact(stream_graph, report)

    def test_backend_failure_trips_breaker_and_degrades(
        self, stream_graph, stream, monkeypatch
    ):
        service = StreamingQueryService(
            stream_graph, window_seconds=0.25, max_batch=32, workers=0,
            clock="simulated",
            breaker=CircuitBreaker(failure_threshold=1, cooldown_seconds=1e9),
        )
        def boom(batch, at_seconds=None, index=None):
            raise RuntimeError("backend down")
        monkeypatch.setattr(service.backend, "process_window", boom)
        report = service.run(stream)
        service.close()
        assert report.breaker_degraded_windows == len(report.windows)
        assert report.unaccounted_queries == 0
        assert_exact(stream_graph, report)


class TestTimelineIntegration:
    def test_weight_epochs_invalidate_the_stream_cache(self):
        graph = grid_city(6, 6, seed=1)
        workload = WorkloadGenerator(graph, seed=2)
        arrivals = PoissonArrivals(workload, rate=200.0, seed=4).duration(1.5)
        timeline = TrafficTimeline(graph, seed=9)
        for at in (0.5, 1.0):
            timeline.schedule(at, congestion_snapshot(fraction=0.4))
        report = run_service(
            graph, arrivals, window_seconds=0.1, timeline=timeline
        )
        assert report.stream_cache_invalidations == 2
        assert report.unaccounted_queries == 0
        # After the last event the graph is static: every answer produced
        # by a window cut after 1.0 must be exact against the final state.
        final_cut = [w for w in report.windows if w.cut_at > 1.0]
        assert final_cut, "stream should extend past the last epoch"


class TestMetrics:
    def test_streaming_metrics_flow_through_the_registry(
        self, stream_graph, stream
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_service(stream_graph, stream)
        assert report.metrics is not None
        counters = report.metrics.counters
        assert counters.get("streaming.arrivals_total") == len(stream)
        # Windows and their spans count micro-batches only; what was sealed
        # on arrival is counted once per admission record.
        windows = report.micro_batch_windows
        assert 0 < len(windows) < len(report.windows)
        assert counters.get("streaming.windows") == len(windows)
        assert counters.get("streaming.cache_hits") == report.stream_cache_hits
        assert counters.get("streaming.cache_misses") == report.stream_cache_misses
        spans = [s for s in report.metrics.spans if s.get("name") == "stream_window"]
        assert len(spans) == len(windows)
        sealed = sum(
            r.cache_hits for r in report.windows if r.trigger == TRIGGER_ADMISSION
        )
        assert sealed == report.sealed_at_admission_cache > 0
        assert counters.get("streaming.admission_sealed.cache") == sealed
        assert "streaming.admission_sealed.index" not in counters
        latency = report.metrics.histograms["streaming.latency_seconds"]
        assert latency["count"] == len(report.latencies)

    def test_latency_percentiles_are_ordered(self, stream_graph, stream):
        report = run_service(stream_graph, stream)
        assert 0.0 <= report.p50_latency <= report.p99_latency
        # Duration-triggered windows bound the worst batching delay.
        assert report.p99_latency <= 0.25 + 0.05


class TestParallelBackend:
    def test_worker_pool_backend_matches_oracle(self, stream_graph):
        workload = WorkloadGenerator(stream_graph, seed=5)
        arrivals = PoissonArrivals(workload, rate=200.0, seed=6).duration(0.8)
        report = run_service(stream_graph, arrivals, workers=2)
        assert report.unaccounted_queries == 0
        assert_exact(stream_graph, report)
