"""Streaming-vs-offline oracle: the online service must equal batch mode.

The streaming service adds windows, admission control, caching, and a
clock — none of which may change *answers*.  For any arrival stream, the
simulated-clock :class:`StreamingQueryService` must produce exactly the
per-query distances of the offline :meth:`BatchProcessor.process_timed`
replay (grid windows, exact ``slc-s`` pipeline), with zero dropped
queries.  This holds regardless of how differently the micro-batcher
sliced the stream — windowing is a scheduling concern, not a semantic
one.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.batch_runner import BatchProcessor
from repro.network.generators import grid_city
from repro.network.timeline import TrafficTimeline, congestion_snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.queries.arrivals import PoissonArrivals
from repro.queries.workload import WorkloadGenerator
from repro.search.dijkstra import dijkstra
from repro.streaming import StreamingQueryService

from tests.correctness.conftest import (
    CORRECTNESS,
    GRAPH_POOL,
    assert_records_replay,
    workload_for,
)

#: Fewer examples than the pure suites: each case runs a full streaming
#: service plus an offline replay.  Still >= 200 streams per run across
#: the three stream-shape tests below.
STREAMING_ORACLE = settings(CORRECTNESS, max_examples=70)


@st.composite
def stream_case(draw):
    graph_key = draw(st.sampled_from(sorted(GRAPH_POOL)))
    seed = draw(st.integers(min_value=0, max_value=30))
    rate = draw(st.sampled_from([40.0, 120.0, 300.0]))
    duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
    arrivals = PoissonArrivals(
        workload_for(graph_key, seed), rate=rate, seed=seed
    ).duration(duration)
    return graph_key, arrivals


def offline_distances(graph, arrivals):
    answers = BatchProcessor(graph).process_timed(
        arrivals, method="slc-s", window_seconds=1.0
    )
    return sorted(
        (q.source, q.target, round(r.distance, 9))
        for batch in answers
        for q, r in batch.answers
    )


def online_distances(graph, arrivals, **kwargs):
    kwargs.setdefault("window_seconds", 0.25)
    kwargs.setdefault("max_batch", 32)
    kwargs.setdefault("workers", 0)
    with StreamingQueryService(graph, clock="simulated", **kwargs) as service:
        report = service.run(arrivals)
    assert report.unaccounted_queries == 0
    assert report.dropped_queries == 0
    return sorted(
        (s, t, round(d, 9)) for s, t, d in report.distances()
    )


class TestStreamingEqualsOffline:
    @given(stream_case())
    @STREAMING_ORACLE
    def test_default_configuration(self, drawn):
        graph_key, arrivals = drawn
        graph = GRAPH_POOL[graph_key]
        assert online_distances(graph, arrivals) == offline_distances(
            graph, arrivals
        )

    @given(stream_case(), st.sampled_from([0.05, 0.4, 1.5]),
           st.sampled_from([1, 8, None]))
    @STREAMING_ORACLE
    def test_any_window_slicing(self, drawn, window_seconds, max_batch):
        """The dual trigger may slice the stream arbitrarily; answers are
        invariant to the slicing."""
        graph_key, arrivals = drawn
        graph = GRAPH_POOL[graph_key]
        online = online_distances(
            graph, arrivals,
            window_seconds=window_seconds, max_batch=max_batch,
        )
        assert online == offline_distances(graph, arrivals)

    @given(stream_case())
    @STREAMING_ORACLE
    def test_overload_with_degrade_shedding(self, drawn):
        """Even when admission sheds most of the stream to the degrade
        path, answered distances equal the offline batch run."""
        graph_key, arrivals = drawn
        graph = GRAPH_POOL[graph_key]
        online = online_distances(
            graph, arrivals,
            window_seconds=0.1, max_batch=8,
            queue_capacity=2, service_seconds_per_query=0.02,
        )
        assert online == offline_distances(graph, arrivals)

    @given(stream_case())
    @STREAMING_ORACLE
    def test_cch_index_backend_equals_offline(self, drawn):
        """Static graph, hierarchy-served: routing every window through
        the customized CCH instead of the Dijkstra backend changes
        nothing about the answers."""
        graph_key, arrivals = drawn
        graph = GRAPH_POOL[graph_key]
        online = online_distances(graph, arrivals, index="cch")
        assert online == offline_distances(graph, arrivals)


# ----------------------------------------------------------------------
# Cross-epoch oracle: the customized index under a traffic timeline
# ----------------------------------------------------------------------
def _epoch_run(seed: int, num_epochs: int, index: str):
    """One timeline-driven streaming run; returns (report, registry).

    Graph, workload, arrivals and timeline are all derived from ``seed``
    alone, so two calls with different ``index`` values see bit-identical
    inputs — the dual-run oracle's premise.
    """
    graph = grid_city(4, 4, seed=seed)
    workload = WorkloadGenerator(graph, seed=seed + 1)
    arrivals = PoissonArrivals(workload, rate=150.0, seed=seed).duration(1.2)
    timeline = TrafficTimeline(graph, seed=seed)
    for k in range(num_epochs):
        timeline.schedule(0.3 * (k + 1), congestion_snapshot(fraction=0.5))
    reg = MetricsRegistry()
    with use_registry(reg):
        with StreamingQueryService(
            graph,
            window_seconds=0.1,
            max_batch=16,
            workers=0,
            clock="simulated",
            timeline=timeline,
            index=index,
        ) as service:
            report = service.run(arrivals)
    assert report.unaccounted_queries == 0
    assert report.dropped_queries == 0
    return graph, report, reg


def _answers_by_epoch(report, num_epochs: int):
    """``{(s, t): [(epoch, distance), ...]}`` in completion order — the
    epoch is the number of timeline events at or before the ``cut_at`` of
    the answer's record.  Arrivals of one pair complete in arrival order
    (within one window they share epoch and distance), so the k-th entry
    of a pair is the same arrival in any run of the same stream."""
    events = [0.3 * (k + 1) for k in range(num_epochs)]
    out = {}
    offset = 0
    for w in report.windows:
        epoch = sum(1 for at in events if at <= w.cut_at)
        for q, r in report.answers[offset:offset + w.queries]:
            out.setdefault((q.source, q.target), []).append(
                (epoch, round(r.distance, 9))
            )
        offset += w.queries
    assert offset == len(report.answers)
    return out


def _assert_records_replay_offline(report, seed: int, num_epochs: int) -> None:
    """Every answer equals Dijkstra on an offline same-seed graph whose
    timeline was advanced to the ``cut_at`` of the answer's record."""
    offline_graph = grid_city(4, 4, seed=seed)
    offline_timeline = TrafficTimeline(offline_graph, seed=seed)
    for k in range(num_epochs):
        offline_timeline.schedule(
            0.3 * (k + 1), congestion_snapshot(fraction=0.5)
        )
    assert_records_replay(report, offline_graph, offline_timeline)


class TestCustomizedIndexAcrossEpochs:
    """The streaming tier served from the customized CCH must follow
    every traffic epoch: answers equal the plain-backend run and the
    offline per-epoch replay, and the obs counters prove no query was
    ever served from a stale customization."""

    @given(st.integers(0, 15), st.sampled_from([1, 2, 3]))
    @settings(CORRECTNESS, max_examples=20)
    def test_index_run_equals_backend_run(self, seed, num_epochs):
        _, backend_report, _ = _epoch_run(seed, num_epochs, index="none")
        _, index_report, reg = _epoch_run(seed, num_epochs, index="cch")
        # The index answers on arrival, the backend at its window's cut: a
        # query that straddles an epoch boundary is priced under different
        # (each exact) metrics.  Wherever both runs answered in the same
        # epoch they must agree.  round(9): near-ties may resolve to either
        # of two equal-length paths whose float sums differ in the last ulp
        # — the same tolerance the offline/online helpers above apply.
        by_backend = _answers_by_epoch(backend_report, num_epochs)
        by_index = _answers_by_epoch(index_report, num_epochs)
        assert by_backend.keys() == by_index.keys()
        compared = 0
        for pair, served in by_index.items():
            assert len(served) == len(by_backend[pair])
            for (epoch, d), (b_epoch, b_d) in zip(served, by_backend[pair]):
                if epoch == b_epoch:
                    assert d == b_d, (pair, epoch, d, b_d)
                    compared += 1
        assert compared > index_report.answered_queries // 2
        # ... and each run on its own is exact for the epoch its records
        # claim, straddling queries included.
        _assert_records_replay_offline(backend_report, seed, num_epochs)
        _assert_records_replay_offline(index_report, seed, num_epochs)
        # Every miss went through the hierarchy on arrival (no window ever
        # formed), and every epoch triggered exactly one re-customization
        # before the next query was answered — zero stale answers, zero
        # wasted passes.
        assert index_report.index_served_windows > 0
        assert index_report.micro_batch_windows == []
        assert index_report.index_customizations == num_epochs
        assert index_report.stream_cache_invalidations == num_epochs
        counters = reg.snapshot().counters
        assert counters["index.customize_runs"] == 1 + num_epochs
        assert counters.get("index.order_builds", 0) == 0, (
            "a weight-only timeline must never force an order rebuild"
        )
        assert (
            counters["streaming.index_served_windows"]
            == index_report.index_served_windows
        )
        assert (
            counters["streaming.admission_sealed.index"]
            == index_report.sealed_at_admission_index
            > 0
        )

    @given(st.integers(0, 15), st.sampled_from([1, 2, 3]))
    @settings(CORRECTNESS, max_examples=15)
    def test_index_windows_match_offline_per_epoch_replay(
        self, seed, num_epochs
    ):
        """Replay the same timeline offline and advance it to each
        window's cut: every answer the index served must equal Dijkstra
        on the graph exactly as it stood at that window's epoch."""
        _, report, _ = _epoch_run(seed, num_epochs, index="cch")
        offline_graph = grid_city(4, 4, seed=seed)
        offline_timeline = TrafficTimeline(offline_graph, seed=seed)
        for k in range(num_epochs):
            offline_timeline.schedule(
                0.3 * (k + 1), congestion_snapshot(fraction=0.5)
            )
        offset = 0
        checked = 0
        for w in report.windows:
            span = report.answers[offset:offset + w.queries]
            offset += w.queries
            offline_timeline.advance_to(w.cut_at)
            for q, r in span:
                truth = dijkstra(offline_graph, q.source, q.target).distance
                assert math.isclose(
                    r.distance, truth, rel_tol=1e-9, abs_tol=1e-12
                ), (
                    f"window cut {w.cut_at}: {q.source}->{q.target} served "
                    f"{r.distance!r}, offline epoch says {truth!r}"
                )
                checked += 1
        assert checked > 0
