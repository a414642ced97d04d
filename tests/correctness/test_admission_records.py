"""Record-replay oracle for answers sealed at admission.

The admission stage answers a stream-cache hit (and, with an index, any
query) the moment it arrives, so a report is no longer one record per
micro-batch window: runs of arrivals sealed on arrival form *admission
records* between the windows.  Two things must hold for every stream,
epoch schedule, index mode and load level:

* **Replay.**  ``report.answers`` is the concatenation of the records'
  answers, and every answer equals Dijkstra on an offline same-seed graph
  whose timeline was advanced to the ``cut_at`` of the answer's record —
  no answer was ever computed under a metric its record's instant had
  left, or had not reached.
* **Accounting.**  Every arrival that was not shed-dropped belongs to
  exactly one record, ``answered + dead_letters == arrivals``, and there
  is exactly one latency per answer.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.network.generators import grid_city
from repro.network.timeline import TrafficTimeline, congestion_snapshot
from repro.queries.arrivals import TimedQuery
from repro.queries.query import Query
from repro.streaming import StreamingQueryService

from tests.correctness.conftest import CORRECTNESS, assert_records_replay

EPOCH_EVERY = 0.3


def repeating_stream(seed: int, rate: float, pool_size: int, n: int):
    """Poisson stamps over a small pool of OD pairs, so pairs repeat."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(pool_size)]
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= 1.2:
            return arrivals
        arrivals.append(TimedQuery(t, Query(*rng.choice(pairs))))


def epoch_timeline(graph, seed: int, num_epochs: int) -> TrafficTimeline:
    timeline = TrafficTimeline(graph, seed=seed)
    for k in range(num_epochs):
        timeline.schedule(
            EPOCH_EVERY * (k + 1), congestion_snapshot(fraction=0.5)
        )
    return timeline


def run(seed, num_epochs, arrivals, **kwargs):
    graph = grid_city(4, 4, seed=seed)
    with StreamingQueryService(
        graph,
        window_seconds=0.1,
        max_batch=16,
        workers=0,
        clock="simulated",
        timeline=epoch_timeline(graph, seed, num_epochs),
        **kwargs,
    ) as service:
        return service.run(arrivals)


def assert_accounted(report, arrivals):
    assert report.total_arrivals == len(arrivals)
    assert report.answered_queries + len(report.dead_letters) == len(arrivals)
    assert len(report.latencies) == report.answered_queries
    assert (
        sum(w.queries for w in report.windows)
        == len(arrivals) - report.shed_dropped
    )


def assert_replays(report, seed, num_epochs):
    offline = grid_city(4, 4, seed=seed)
    assert_records_replay(
        report, offline, epoch_timeline(offline, seed, num_epochs)
    )
    assert sum(w.timeline_events for w in report.windows) == num_epochs


streams = st.tuples(
    st.integers(0, 40),  # seed
    st.sampled_from([1, 2, 3]),  # epochs
    st.sampled_from([60.0, 150.0, 400.0]),  # rate
    st.integers(3, 12),  # OD pool size
)
index_modes = st.sampled_from(["none", "cch"])


class TestRecordReplay:
    @given(streams, index_modes)
    @settings(CORRECTNESS, max_examples=60)
    def test_every_answer_matches_its_records_epoch(self, drawn, index):
        seed, num_epochs, rate, pool = drawn
        arrivals = repeating_stream(seed, rate, pool, n=16)
        report = run(seed, num_epochs, arrivals, index=index)
        assert not report.dead_letters
        assert_accounted(report, arrivals)
        assert_replays(report, seed, num_epochs)
        assert report.stream_cache_invalidations == num_epochs
        assert report.index_customizations == (
            num_epochs if index == "cch" else 0
        )

    @given(streams, index_modes, st.sampled_from([0, 2 * 1024 * 1024]))
    @settings(CORRECTNESS, max_examples=60)
    def test_overload_shed_answers_land_in_records_of_their_epoch(
        self, drawn, index, cache_bytes
    ):
        """A tiny queue and a per-query cost push arrivals onto the
        shed-degrade path while windows are pending and events are due:
        the shed answer joins an admission record stamped inside the span
        of the metric it was computed under."""
        seed, num_epochs, rate, pool = drawn
        arrivals = repeating_stream(seed, rate, pool, n=16)
        report = run(
            seed,
            num_epochs,
            arrivals,
            index=index,
            stream_cache_bytes=cache_bytes,
            queue_capacity=2,
            service_seconds_per_query=0.02,
        )
        assert not report.dead_letters
        assert_accounted(report, arrivals)
        assert_replays(report, seed, num_epochs)


class TestAccountingUnderDeadlines:
    @given(
        streams,
        index_modes,
        st.sampled_from([0.05, 0.15, 0.4]),
        st.sampled_from([0.0, 0.03]),
    )
    @settings(CORRECTNESS, max_examples=60)
    def test_one_fate_and_at_most_one_latency_per_arrival(
        self, drawn, index, deadline, cost
    ):
        seed, num_epochs, rate, pool = drawn
        arrivals = repeating_stream(seed, rate, pool, n=16)
        report = run(
            seed,
            num_epochs,
            arrivals,
            index=index,
            query_deadline_seconds=deadline,
            service_seconds_per_query=cost,
        )
        assert_accounted(report, arrivals)
        assert report.deadline_expired == len(report.dead_letters)
