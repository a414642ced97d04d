"""Unit tests for the traffic timeline (dynamic snapshot replay)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network.timeline import (
    TrafficTimeline,
    congestion_snapshot,
    incident_snapshot,
    recovery_snapshot,
)


@pytest.fixture()
def city(ring):
    return ring.copy()


class TestScheduling:
    def test_events_fire_in_order(self, city):
        timeline = TrafficTimeline(city, seed=1)
        timeline.schedule(10.0, congestion_snapshot(0.1), "a")
        timeline.schedule(5.0, congestion_snapshot(0.1), "b")  # out of order
        fired = timeline.advance_to(7.0)
        assert fired == 1
        assert timeline.applied[0][1] == "b"
        assert timeline.pending_events == 1
        timeline.advance_to(20.0)
        assert [label for _, label, _ in timeline.applied] == ["b", "a"]

    def test_clock_monotone(self, city):
        timeline = TrafficTimeline(city, seed=1)
        timeline.advance_to(5.0)
        with pytest.raises(ConfigurationError):
            timeline.advance_to(4.0)

    def test_cannot_schedule_in_the_past(self, city):
        timeline = TrafficTimeline(city, seed=1)
        timeline.advance_to(10.0)
        with pytest.raises(ConfigurationError):
            timeline.schedule(5.0, congestion_snapshot(0.1))

    def test_next_event_at_is_the_head_of_the_sorted_pending_suffix(self, city):
        timeline = TrafficTimeline(city, seed=1)
        assert timeline.next_event_at is None
        timeline.schedule(10.0, congestion_snapshot(0.1))
        timeline.schedule(5.0, congestion_snapshot(0.1))  # out of order
        assert timeline.next_event_at == 5.0
        timeline.advance_to(4.9)  # nothing due: asking never advances
        assert timeline.next_event_at == 5.0
        assert timeline.advance_to(5.0) == 1
        assert timeline.next_event_at == 10.0
        timeline.schedule(7.0, congestion_snapshot(0.1))  # ahead of the head
        assert timeline.next_event_at == 7.0
        timeline.advance_to(20.0)
        assert timeline.next_event_at is None
        assert timeline.pending_events == 0

    def test_events_fire_once(self, city):
        timeline = TrafficTimeline(city, seed=1)
        timeline.schedule(1.0, congestion_snapshot(0.1))
        timeline.advance_to(2.0)
        assert timeline.advance_to(3.0) == 0


class TestPerturbations:
    def test_congestion_raises_weights_and_version(self, city):
        version = city.version
        total = city.total_weight()
        timeline = TrafficTimeline(city, seed=2)
        timeline.schedule(1.0, congestion_snapshot(0.2, 1.5, 2.0))
        timeline.advance_to(1.0)
        assert city.version > version
        assert city.total_weight() > total

    def test_congestion_keeps_admissibility(self, city):
        timeline = TrafficTimeline(city, seed=2)
        timeline.schedule(1.0, congestion_snapshot(0.5, 1.2, 3.0))
        timeline.advance_to(1.0)
        for u, v, w in city.edges():
            assert w >= city.euclidean(u, v) - 1e-9

    def test_incident_is_localised(self, city):
        timeline = TrafficTimeline(city, seed=3)
        timeline.schedule(1.0, incident_snapshot(radius=5.0, factor=4.0))
        timeline.advance_to(1.0)
        _, _, touched = timeline.applied[0]
        assert 0 < touched < city.num_edges

    def test_recovery_restores_baseline(self, city):
        baseline = {(u, v): w for u, v, w in city.edges()}
        timeline = TrafficTimeline(city, seed=4)
        timeline.schedule(1.0, congestion_snapshot(0.3))
        timeline.schedule(2.0, recovery_snapshot())
        timeline.advance_to(3.0)
        for (u, v), w in baseline.items():
            assert city.weight(u, v) == pytest.approx(w)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            congestion_snapshot(0.0)
        with pytest.raises(ConfigurationError):
            congestion_snapshot(0.5, low=0.5)
        with pytest.raises(ConfigurationError):
            incident_snapshot(radius=0.0)
        with pytest.raises(ConfigurationError):
            incident_snapshot(radius=1.0, factor=0.5)


class TestIntegrationWithDynamicSession:
    def test_epoch_flush_on_timeline_event(self, city, ring_workload):
        from repro.core.dynamic import DynamicBatchSession
        from repro.core.local_cache import LocalCacheAnswerer
        from repro.core.search_space import SearchSpaceDecomposer

        session = DynamicBatchSession(
            city,
            decomposer=SearchSpaceDecomposer(city),
            answerer=LocalCacheAnswerer(city, cache_bytes=10**6),
        )
        timeline = TrafficTimeline(city, seed=5)
        timeline.schedule(10.0, congestion_snapshot(0.2))

        session.process_batch(ring_workload.batch(25))
        timeline.advance_to(5.0)  # nothing due yet
        session.process_batch(ring_workload.batch(25))
        assert session.epochs_flushed == 0
        timeline.advance_to(15.0)  # snapshot fires -> new epoch
        session.process_batch(ring_workload.batch(25))
        assert session.epochs_flushed == 1
