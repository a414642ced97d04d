"""The admission stage: what is sealed on arrival, and what must not be."""

import os
import subprocess
import sys

import pytest

from repro.network.generators import grid_city
from repro.network.timeline import TrafficTimeline, congestion_snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.queries.arrivals import TimedQuery
from repro.queries.query import Query
from repro.resilience import REASON_DEADLINE_EXCEEDED, STAGE_DISPATCH
from repro.resilience.faults import FAULT_EXIT_CODE
from repro.search.dijkstra import dijkstra
from repro.streaming import (
    TRIGGER_ADMISSION,
    ArrivalJournal,
    StreamingQueryService,
    scan_journal,
)

TRIP = Query(0, 9)
OTHER = Query(3, 12)


@pytest.fixture()
def graph():
    return grid_city(6, 6, seed=1)


def run_service(graph, arrivals, **kwargs):
    kwargs.setdefault("window_seconds", 0.1)
    kwargs.setdefault("max_batch", 32)
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("clock", "simulated")
    with StreamingQueryService(graph, **kwargs) as service:
        return service.run(arrivals)


def records(report):
    """``[(trigger, queries, [distance, ...]), ...]`` per record."""
    out = []
    offset = 0
    for w in report.windows:
        span = report.answers[offset:offset + w.queries]
        out.append((w.trigger, w.queries, [r.distance for _, r in span]))
        offset += w.queries
    return out


class TestSealedOnArrival:
    def test_a_hit_does_not_wait_for_a_window(self, graph):
        arrivals = [TimedQuery(0.0, TRIP), TimedQuery(0.5, TRIP)]
        report = run_service(graph, arrivals)
        assert [w.trigger for w in report.windows] == ["duration", TRIGGER_ADMISSION]
        # The miss waited out its window; the hit was answered at its stamp.
        assert report.latencies == [0.1, 0.0]
        hit = report.windows[1]
        assert (hit.index, hit.queries, hit.cache_hits) == (-1, 1, 1)
        assert hit.opened_at == hit.cut_at == hit.completed_at == 0.5
        assert report.sealed_at_admission_cache == 1
        assert (report.stream_cache_hits, report.stream_cache_misses) == (1, 1)
        assert report.mean_window_size == 1.0

    def test_index_answers_every_arrival_without_a_window(self, graph):
        arrivals = [
            TimedQuery(0.0, TRIP), TimedQuery(0.02, OTHER), TimedQuery(0.04, TRIP)
        ]
        report = run_service(graph, arrivals, index="cch")
        assert report.latencies == [0.0, 0.0, 0.0]
        assert report.micro_batch_windows == []
        assert report.index_served_windows == 1
        assert report.sealed_at_admission_index == 2
        assert report.sealed_at_admission_cache == 1
        (record,) = report.windows
        assert record.index_served and record.queries == 3
        for q, r in report.answers:
            assert r.distance == dijkstra(graph, q.source, q.target).distance

    def test_admission_records_close_at_the_window_cadence(self, graph):
        """``max_batch`` seals or ``window_seconds`` open, whichever first
        — the journal is flushed as often as windows flushed it."""
        arrivals = [TimedQuery(0.001 * i, TRIP) for i in range(10)]
        arrivals += [TimedQuery(1.0 + 0.06 * i, TRIP) for i in range(4)]
        report = run_service(graph, arrivals, index="cch", max_batch=4)
        assert [(w.queries, w.opened_at) for w in report.windows] == [
            (4, 0.0), (4, 0.004), (2, 0.008), (2, 1.0), (2, 1.12),
        ]
        assert sum(w.queries for w in report.windows) == len(arrivals)

    def test_metrics_are_published_once_per_record(self, graph):
        arrivals = [TimedQuery(0.01 * i, TRIP) for i in range(20)]
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_service(graph, arrivals, index="cch", max_batch=8)
        counters = report.metrics.counters
        assert counters["streaming.admission_sealed.index"] == 1
        assert counters["streaming.admission_sealed.cache"] == 19
        assert counters["streaming.cache_hits"] == 19
        assert counters["streaming.cache_misses"] == 1
        assert "streaming.windows" not in counters
        latency = report.metrics.histograms["streaming.latency_seconds"]
        assert latency["count"] == 20


class TestEventDueWhileAWindowIsPending:
    def setup_run(self, graph, arrivals, **kwargs):
        timeline = TrafficTimeline(graph, seed=5)
        # Every edge exactly doubles, so a stale answer is off by 2x.
        timeline.schedule(0.3, congestion_snapshot(1.0, 2.0, 2.0))
        before = dijkstra(graph, TRIP.source, TRIP.target).distance
        report = run_service(graph, arrivals, timeline=timeline, **kwargs)
        return report, before, timeline

    def test_hit_waits_for_the_cut_and_the_event_fires_once_there(self, graph):
        arrivals = [
            TimedQuery(0.0, TRIP),    # miss: window [0, 0.1), caches the path
            TimedQuery(0.25, OTHER),  # miss: window [0.25, 0.35) spans the event
            TimedQuery(0.27, TRIP),   # hit, event not due yet: sealed on arrival
            TimedQuery(0.32, TRIP),   # hit available, event due, window pending
        ]
        report, before, timeline = self.setup_run(graph, arrivals)
        assert [(t, n) for t, n, _ in records(report)] == [
            ("duration", 1), (TRIGGER_ADMISSION, 1), ("duration", 2),
        ]
        sealed, spanning = report.windows[1], report.windows[2]
        assert sealed.cut_at == 0.27 and sealed.timeline_events == 0
        assert records(report)[1][2] == pytest.approx([before])
        # The 0.32 arrival joined the window; the event fired at its cut,
        # exactly once, and both of its queries were priced after it.
        assert spanning.cut_at == 0.35 and spanning.timeline_events == 1
        assert spanning.cache_hits == 0
        assert sum(w.timeline_events for w in report.windows) == 1
        assert timeline.pending_events == 0
        after = {
            (q.source, q.target): r.distance for q, r in report.answers[2:]
        }
        assert after[(TRIP.source, TRIP.target)] == pytest.approx(2 * before)
        assert report.sealed_at_admission_cache == 1
        assert report.stream_cache_invalidations == 1

    def test_event_due_with_nothing_pending_fires_on_arrival(self, graph):
        arrivals = [
            TimedQuery(0.25, TRIP), TimedQuery(0.29, TRIP), TimedQuery(0.31, TRIP)
        ]
        report, before, _ = self.setup_run(graph, arrivals, index="cch")
        assert [(t, n) for t, n, _ in records(report)] == [
            (TRIGGER_ADMISSION, 2), (TRIGGER_ADMISSION, 1),
        ]
        # The record still open under the old metric was closed before the
        # event fired; the arrival that fired it opens the next one.
        old, new = report.windows
        assert (old.cut_at, old.timeline_events) == (0.29, 0)
        assert (new.cut_at, new.timeline_events) == (0.31, 1)
        assert [r.distance for _, r in report.answers] == pytest.approx(
            [before, before, 2 * before]
        )
        assert report.index_customizations == 1
        assert report.stream_cache_invalidations == 1


class TestDeadlineSpentAtAdmission:
    def test_index_mode_dead_letters_through_the_window_ladder(self, graph):
        """The first answer costs 0.3 s of stream time, so the second
        arrival is admitted 0.2 s after its stamp with a 0.15 s budget."""
        arrivals = [TimedQuery(0.0, TRIP), TimedQuery(0.1, OTHER)]
        report = run_service(
            graph,
            arrivals,
            index="cch",
            stream_cache_bytes=0,
            query_deadline_seconds=0.15,
            service_seconds_per_query=0.3,
        )
        assert report.sealed_at_admission_index == 1
        assert report.answered_queries == 1 and len(report.latencies) == 1
        (letter,) = report.dead_letters
        assert (letter.source, letter.target) == (OTHER.source, OTHER.target)
        assert letter.reason == REASON_DEADLINE_EXCEEDED
        assert letter.stage == STAGE_DISPATCH
        assert [(t, n) for t, n, _ in records(report)] == [
            (TRIGGER_ADMISSION, 1), ("duration", 1),
        ]
        assert report.deadline_expired == 1
        assert report.unaccounted_queries == 0

    def test_spent_budget_is_never_sealed_from_the_cache(self, graph):
        """A would-be hit admitted past its deadline takes the window path
        (where the existing ladder re-probes the cache), not the fast one."""
        arrivals = [TimedQuery(0.0, TRIP), TimedQuery(0.12, TRIP)]
        report = run_service(
            graph,
            arrivals,
            query_deadline_seconds=0.15,
            service_seconds_per_query=0.3,
        )
        assert report.sealed_at_admission_cache == 0
        assert report.micro_batch_windows == report.windows
        assert [w.cache_hits for w in report.windows] == [0, 1]
        assert report.unaccounted_queries == 0


class TestFatesArePerArrival:
    def test_same_pair_one_expired_one_live(self, graph):
        """Regression: fates were matched to arrivals by (source, target),
        so the dead-lettered arrival got a latency and an ``answered``
        journal record because its twin in the window was answered."""
        arrivals = [TimedQuery(0.0, TRIP), TimedQuery(0.09, TRIP)]
        report = run_service(graph, arrivals, query_deadline_seconds=0.05)
        assert report.answered_queries == 1
        assert len(report.dead_letters) == 1
        assert len(report.latencies) == report.answered_queries
        assert report.latencies == [pytest.approx(0.01)]

    def test_journal_records_the_dead_letter_as_a_dead_letter(
        self, graph, tmp_path
    ):
        path = str(tmp_path / "wal.jsonl")
        arrivals = [TimedQuery(0.0, TRIP), TimedQuery(0.09, TRIP)]
        with ArrivalJournal(path, fsync=False) as journal:
            run_service(
                graph, arrivals, query_deadline_seconds=0.05, journal=journal
            )
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        outcomes = [line for line in lines if "done" in line]
        assert len(outcomes) == 2
        assert sum("dead" in line for line in outcomes) == 1
        assert scan_journal(path).pending == []


# ----------------------------------------------------------------------
# Journal: admission records are as durable as windows
# ----------------------------------------------------------------------
def repeating_stream():
    """Two trips alternating every 10 ms for a second: after the first
    window almost everything is sealed on arrival."""
    return [
        TimedQuery(0.01 * i, TRIP if i % 2 else OTHER) for i in range(100)
    ]


KILL_SCRIPT = """
import sys
from repro.network.generators import grid_city
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.streaming import ArrivalJournal, StreamingQueryService
from tests.streaming.test_admission_stage import THIRD, repeating_stream

plan = FaultPlan(specs=(FaultSpec(site="stream", kind="kill", units=(1,)),))
with ArrivalJournal(sys.argv[1]) as journal:
    with StreamingQueryService(
        grid_city(6, 6, seed=1), window_seconds=0.1, max_batch=32, workers=0,
        clock="simulated", journal=journal, fault_plan=plan,
    ) as service:
        service.run(repeating_stream() + [THIRD])
print("UNREACHABLE")
"""

#: A first-time pair late in the stream: its miss forms window 1, whose
#: flush is where the seeded kill fires.
THIRD = TimedQuery(0.555, Query(5, 30))


class TestJournalDurability:
    def test_kill_after_admission_records_owes_exactly_the_unsealed(
        self, graph, tmp_path
    ):
        stream = repeating_stream() + [THIRD]
        # The same run without the fault says what was sealed by the time
        # window 1 flushed: every record up to and including it.
        clean = run_service(graph, stream)
        sealed = 0
        for position, w in enumerate(clean.windows):
            sealed += w.queries
            if w.index == 1:
                break
        before_kill = clean.windows[: position + 1]
        assert sum(w.trigger == TRIGGER_ADMISSION for w in before_kill) >= 1
        assert 0 < sealed < len(stream)

        path = str(tmp_path / "wal.jsonl")
        env = dict(os.environ)
        # The repo root too: the script takes its stream from this module.
        env["PYTHONPATH"] = os.pathsep.join(
            [
                os.path.join(os.getcwd(), "src"),
                os.getcwd(),
                env.get("PYTHONPATH", ""),
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", KILL_SCRIPT, path],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == FAULT_EXIT_CODE, proc.stderr
        assert "UNREACHABLE" not in proc.stdout

        scan = scan_journal(path)
        assert scan.arrivals == len(stream)
        assert scan.done == sealed
        assert len(scan.pending) == len(stream) - sealed

        with ArrivalJournal(path, fsync=False) as journal:
            report = run_service(
                graph, journal.pending_arrivals(), journal=journal
            )
        assert report.answered_queries == len(stream) - sealed
        final = scan_journal(path)
        assert final.pending == []
        assert final.done == len(stream)  # zero lost, zero duplicated

    def test_drain_with_an_open_admission_record_keeps_accounting(
        self, graph, tmp_path
    ):
        stream = repeating_stream()
        path = str(tmp_path / "wal.jsonl")
        with ArrivalJournal(path, fsync=False) as journal:
            report = run_service(
                graph, stream, journal=journal, drain_after_seconds=0.555
            )
        assert report.drained
        # The drain instant falls inside an admission record's span.
        last = report.windows[-1]
        assert last.trigger == TRIGGER_ADMISSION
        assert last.opened_at < 0.555 < last.opened_at + 0.1
        assert report.unadmitted_arrivals == 44
        assert (
            report.answered_queries + len(report.dead_letters)
            == report.total_arrivals
            == sum(w.queries for w in report.windows)
            == 56
        )
        scan = scan_journal(path)
        assert scan.done == 56
        assert len(scan.pending) == 44
