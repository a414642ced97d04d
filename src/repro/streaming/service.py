"""The streaming front door: online micro-batch query answering.

:class:`StreamingQueryService` closes the gap between the paper's
pre-formed batches and a live deployment: it ingests a continuous
arrival stream (any iterable of
:class:`~repro.queries.arrivals.TimedQuery`), assembles micro-batch
windows under the dual trigger of :class:`~repro.streaming.microbatch.
MicroBatcher` (max window duration OR max batch size), applies
admission control with a bounded queue and a degrade-before-drop
load-shedding policy, and hands each assembled window to the existing
:class:`~repro.service.BatchQueryService` — the serial dynamic session
or the multiprocess :class:`~repro.parallel.ParallelBatchEngine`,
depending on ``workers``.

Queries only wait for a window when the window can help them.  The
**admission stage** (:meth:`StreamingQueryService._admit`) answers on
arrival whatever shares no work with its neighbours — an exact
stream-cache hit, or any query when a customizable index serves the
misses — and seals it into an *admission record*; only a cache miss
bound for the batch backend goes on through admission control to the
micro-batcher.

Two pieces make it a *streaming* system rather than a loop around the
batch one:

* **Cross-window path cache.**  A :class:`~repro.core.cache.
  VersionedPathCache` keyed to the graph's CSR snapshot version sits in
  front of dispatch: queries covered by a path answered in an *earlier*
  window are served in O(1) with zero search, and the cache self-clears
  the moment a :class:`~repro.network.timeline.TrafficTimeline` event
  (or any ``set_weight``/``scale_weights``) bumps the version — stale
  hits are structurally impossible.
* **A clock the scheduler owns.**  Every scheduling decision — window
  cut, shed, backpressure stall — reads time through a
  :class:`~repro.streaming.clock.SimulatedClock` or
  :class:`~repro.streaming.clock.MonotonicClock`, so tests replay the
  exact same decisions deterministically while benchmarks measure real
  end-to-end latency with the same code path.

Accounting invariant (pinned by the correctness fleet): every arrival is
either answered or dead-lettered with a structured reason — the service
never silently drops a query, even under overload.
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.metrics import percentile
from ..core.cache import VersionedPathCache
from ..exceptions import ConfigurationError, DeadlineExceededError
from ..index.cch import CustomizableContractionHierarchy
from ..obs import (
    MetricsSnapshot,
    TIME_BUCKETS,
    get_registry,
    record_admission_sealed,
    record_dead_letters,
    record_deadline,
    record_journal,
    record_stream_cache,
    record_stream_shed,
    record_stream_window,
    set_stream_queue_depth,
)
from ..queries.arrivals import TimedQuery
from ..queries.query import Query, QuerySet
from ..resilience import (
    CircuitBreaker,
    Deadline,
    DeadLetterRecord,
    REASON_DEADLINE_EXCEEDED,
    REASON_INVALID_QUERY,
    REASON_NO_PATH,
    REASON_SHED,
    REASON_WINDOW_DEGRADED,
    STAGE_ADMISSION,
    STAGE_DISPATCH,
    STAGE_SESSION,
    STAGE_VALIDATION,
    use_deadline,
)
from ..resilience.faults import FAULT_EXIT_CODE
from ..search.common import PathResult
from ..service import BatchQueryService, WindowReport
from .admission import ADMITTED, AdmissionController, SHED_DROP
from .clock import MonotonicClock, SimulatedClock, make_clock
from .journal import ArrivalJournal, OUTCOME_ANSWERED, OUTCOME_DEAD_LETTER
from .microbatch import MicroBatcher, MicroWindow

logger = logging.getLogger(__name__)

AnswerPair = Tuple[Query, PathResult]


def latency_percentile(sorted_latencies: List[float], p: float) -> float:
    """Linear-interpolated percentile over pre-sorted samples (0.0 if empty).

    Delegates to :func:`repro.analysis.metrics.percentile` — the repo's
    single percentile implementation — with the streaming empty-data
    policy made explicit: a latency report before any query has finished
    reads 0.0 rather than raising.  ``p`` is a fraction in ``[0, 1]``
    (clamped), unlike the analysis-side ``q`` in ``[0, 100]``.
    """
    return percentile(sorted_latencies, p * 100.0, default=0.0, assume_sorted=True)


#: ``StreamWindowRecord.trigger`` of an admission record (not a
#: micro-batch cut: nothing in it waited for a window).
TRIGGER_ADMISSION = "admission"

#: How an arrival sealed at admission was answered.
_SEALED_CACHE = "cache"
_SEALED_INDEX = "index"
_SEALED_SHED = "shed"


@dataclass
class StreamWindowRecord:
    """One run of sealed arrivals, as the operator sees it.

    Either a dispatched micro-batch window, or an *admission record*
    (``trigger == "admission"``, ``index == -1``): the consecutive
    arrivals sealed on arrival between two record boundaries.  Records
    are appended in completion order, so ``StreamReport.answers`` is the
    concatenation of the records' answers, and every answer of a record
    was computed under the metric current at the record's ``cut_at``.
    """

    index: int
    trigger: str
    opened_at: float
    #: Micro-batch window: the scheduled cut.  Admission record: the
    #: stream instant of its last seal (a shed-degraded answer computed
    #: while a due event waits for a pending window's cut is stamped just
    #: before that event, inside the span of the metric it saw).
    cut_at: float
    completed_at: float
    #: Arrivals whose fate the record sealed (answered or dead-lettered).
    queries: int
    #: Queries answered straight from the cross-window path cache.
    cache_hits: int
    #: Backend outcome for the cache misses (``None`` when the whole
    #: window was served from cache or by the breaker's degrade path).
    report: Optional[WindowReport]
    #: The streaming breaker was open (or dispatch failed) and the window
    #: was answered by per-query Dijkstra instead of the backend.
    breaker_degraded: bool = False
    #: Timeline events fired when the window's cut — or, for an admission
    #: record, the arrival that opened it — advanced the timeline.
    timeline_events: int = 0
    #: Cache misses were answered by the customizable index (``--index
    #: cch``) rather than the batch backend.
    index_served: bool = False


@dataclass
class _OpenAdmissionRecord:
    """The admission record still accumulating seals."""

    opened_at: float
    cut_at: float
    completed_at: float
    timeline_events: int
    #: ``len(report.latencies)`` when the record opened: its own
    #: latencies are the tail from here (nothing else appends meanwhile).
    first_latency: int
    queries: int = 0
    cache_hits: int = 0
    index_served: int = 0


@dataclass
class StreamReport:
    """Aggregate outcome of one streaming run."""

    #: Micro-batch windows and admission records, in completion order.
    windows: List[StreamWindowRecord] = field(default_factory=list)
    #: Every answered ``(query, result)`` pair, in completion order
    #: (includes cache hits and shed-degraded answers): the records'
    #: answers, concatenated record by record.
    answers: List[AnswerPair] = field(default_factory=list)
    #: End-to-end seconds (arrival -> answer), one per answered arrival,
    #: in completion order: record by record like ``answers``, but inside
    #: a micro-batch window in arrival order, so the two lists are not
    #: parallel.
    latencies: List[float] = field(default_factory=list)
    dead_letters: List[DeadLetterRecord] = field(default_factory=list)
    total_arrivals: int = 0
    shed_degraded: int = 0
    shed_dropped: int = 0
    backpressure_stalls: int = 0
    #: Queries dead-lettered because their per-query deadline expired.
    deadline_expired: int = 0
    #: Queries cut off from the batch path but re-answered by plain
    #: Dijkstra inside what remained of their budget.
    deadline_degraded: int = 0
    #: The run ended via a drain request rather than stream exhaustion.
    drained: bool = False
    #: Arrivals abandoned by a drain before their arrival instant —
    #: excluded from ``total_arrivals`` (never admitted), but still
    #: pending in the journal for a later ``--recover`` run.
    unadmitted_arrivals: int = 0
    #: Arrivals replayed from a journal rather than freshly stamped.
    replayed_arrivals: int = 0
    #: Arrivals answered from the stream cache / probed and then answered
    #: by a search (one count per arrival, however often it was probed).
    stream_cache_hits: int = 0
    stream_cache_misses: int = 0
    stream_cache_invalidations: int = 0
    #: Arrivals sealed on arrival, without waiting for a window: exact
    #: stream-cache hits, and cache misses answered by the index.
    sealed_at_admission_cache: int = 0
    sealed_at_admission_index: int = 0
    #: Index re-customizations triggered by weight epochs during the run
    #: (the initial customization at service construction is not counted).
    index_customizations: int = 0
    #: Stream-clock span of the run (simulated or real seconds).
    wall_seconds: float = 0.0
    metrics: Optional[MetricsSnapshot] = None

    # ------------------------------------------------------------------
    @property
    def answered_queries(self) -> int:
        return len(self.answers)

    @property
    def dropped_queries(self) -> int:
        """Queries shed without an answer (always dead-lettered)."""
        return sum(1 for d in self.dead_letters if d.reason == REASON_SHED)

    @property
    def unaccounted_queries(self) -> int:
        """Arrivals neither answered nor dead-lettered — must be zero."""
        return self.total_arrivals - self.answered_queries - len(self.dead_letters)

    @property
    def micro_batch_windows(self) -> List[StreamWindowRecord]:
        """The records that are dispatched windows (not admission records)."""
        return [w for w in self.windows if w.trigger != TRIGGER_ADMISSION]

    @property
    def windows_by_trigger(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for w in self.windows:
            out[w.trigger] = out.get(w.trigger, 0) + 1
        return out

    @property
    def breaker_degraded_windows(self) -> int:
        return sum(1 for w in self.windows if w.breaker_degraded)

    @property
    def index_served_windows(self) -> int:
        """Records — windows or admission records — with index answers."""
        return sum(1 for w in self.windows if w.index_served)

    @property
    def mean_window_size(self) -> float:
        """Mean queries per micro-batch window (admission records excluded)."""
        windows = self.micro_batch_windows
        if not windows:
            return 0.0
        return sum(w.queries for w in windows) / len(windows)

    def latency_seconds(self, p: float) -> float:
        return latency_percentile(sorted(self.latencies), p)

    @property
    def p50_latency(self) -> float:
        return self.latency_seconds(0.50)

    @property
    def p99_latency(self) -> float:
        return self.latency_seconds(0.99)

    @property
    def qps(self) -> float:
        """Sustained answered-queries-per-second over the stream span."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.answered_queries / self.wall_seconds

    def distances(self) -> List[Tuple[int, int, float]]:
        """Sorted ``(source, target, distance)`` triples — oracle food."""
        return sorted(
            (q.source, q.target, r.distance) for q, r in self.answers
        )


class StreamingQueryService:
    """Micro-batch streaming service over a live road network.

    Parameters
    ----------
    graph:
        The (mutable) road network.
    window_seconds:
        Duration trigger: maximum time a window stays open.
    max_batch:
        Size trigger: maximum queries per window (``None`` = timer only).
        Admission records close on the same two triggers, so the journal
        is flushed at the window cadence whichever path a query takes.
    queue_capacity / shed_policy / degrade_budget:
        Admission control (see :class:`~repro.streaming.admission.
        AdmissionController`).
    workers:
        Backend parallelism, passed straight to
        :class:`~repro.service.BatchQueryService` (``0`` = serial engine
        path, ``1`` = dynamic session, ``k > 1`` = worker pool).
    clock:
        ``"simulated"`` (deterministic replay), ``"real"``, or a clock
        instance.
    timeline:
        Optional :class:`~repro.network.timeline.TrafficTimeline`;
        advanced to each window's cut instant — and, while no window is
        pending, to the instant of an arrival that finds an event due — so
        weight epochs interleave with answers exactly as stamped.  A
        query sealed at admission is answered under the metric current at
        its admission instant, a windowed one under the metric at its cut.
    index:
        ``"none"`` (default) dispatches cache misses to the batch
        backend; ``"cch"`` answers them from a
        :class:`~repro.index.cch.CustomizableContractionHierarchy`
        instead — on arrival, since an index query shares no work with
        its window.  The index is keyed to ``graph.version``: a timeline
        epoch (or any weight mutation) triggers one re-customization
        *before* the next query is answered, so hierarchy queries always
        see the current metric — never a stale shortcut.  An unexpected
        index failure degrades that query to plain Dijkstra.
    stream_cache_bytes:
        Byte budget of the cross-window path cache (``0`` disables it).
    service_seconds_per_query:
        Simulated-clock only: deterministic processing cost charged per
        dispatched query (and per index answer at admission; a cache hit
        sealed at admission is free), so overload (and therefore shedding
        and backpressure) can be reproduced exactly in tests.
    breaker:
        Streaming-level :class:`~repro.resilience.CircuitBreaker`
        guarding backend dispatch; when open, windows degrade to
        per-query Dijkstra (exact, cache-free) instead of failing.
    query_deadline_seconds:
        Per-query end-to-end budget, measured on the *stream* clock from
        each query's arrival.  A query whose budget is already spent when
        it is admitted is never answered on arrival; it takes the window
        path, where a query whose budget is spent before its
        window dispatches is dead-lettered (``deadline-exceeded``); a
        query cut off mid-search by the cooperative kernel check is
        re-answered by plain Dijkstra if budget remains, else
        dead-lettered.  ``None`` disables deadlines entirely.
    journal:
        Optional :class:`~repro.streaming.journal.ArrivalJournal` — the
        crash-safe WAL recording every arrival before dispatch and every
        sealed outcome after, enabling ``--recover`` replay.
    drain_after_seconds:
        Request a graceful drain once the stream clock reaches this
        instant (deterministic equivalent of SIGTERM mid-run).
    Remaining keyword arguments (``decomposer``, ``answerer``,
    ``retry_policy``, ``fault_plan``, ``unit_timeout``, ``frozen``,
    ``start_method``, ``similarity_threshold``, ``deadline_seconds``)
    are forwarded to the backend :class:`~repro.service.BatchQueryService`.
    """

    def __init__(
        self,
        graph,
        window_seconds: float = 0.25,
        max_batch: Optional[int] = 64,
        queue_capacity: int = 1024,
        shed_policy: str = "degrade",
        degrade_budget: Optional[int] = None,
        workers: int = 1,
        clock: Union[str, SimulatedClock, MonotonicClock] = "simulated",
        timeline=None,
        index: str = "none",
        stream_cache_bytes: int = 2 * 1024 * 1024,
        service_seconds_per_query: float = 0.0,
        breaker: Optional[CircuitBreaker] = None,
        query_deadline_seconds: Optional[float] = None,
        journal: Optional[ArrivalJournal] = None,
        drain_after_seconds: Optional[float] = None,
        **backend_options,
    ) -> None:
        if service_seconds_per_query < 0:
            raise ConfigurationError("service_seconds_per_query must be non-negative")
        if stream_cache_bytes < 0:
            raise ConfigurationError("stream_cache_bytes must be non-negative")
        if query_deadline_seconds is not None and query_deadline_seconds <= 0:
            raise ConfigurationError("query_deadline_seconds must be positive")
        if drain_after_seconds is not None and drain_after_seconds < 0:
            raise ConfigurationError("drain_after_seconds must be non-negative")
        if index not in ("none", "cch"):
            raise ConfigurationError(
                f"index must be 'none' or 'cch', got {index!r}"
            )
        self.graph = graph
        self.index = index
        self._index: Optional[CustomizableContractionHierarchy] = (
            CustomizableContractionHierarchy(graph) if index == "cch" else None
        )
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.workers = workers
        self.clock = make_clock(clock) if isinstance(clock, str) else clock
        self.timeline = timeline
        self.service_seconds_per_query = service_seconds_per_query
        self.query_deadline_seconds = query_deadline_seconds
        self.journal = journal
        self.drain_after_seconds = drain_after_seconds
        self._drain_requested = False
        # Admission stage: the record collecting what is sealed on arrival,
        # and timeline events an arrival fired that no record carries yet.
        self._admission_record: Optional[_OpenAdmissionRecord] = None
        self._fired_on_arrival = 0
        self._invalidations_published = 0
        # The stream-level fault plan is the backend's plan: the "stream"
        # site belongs to this layer, every other site to the backend.
        self._fault_plan = backend_options.get("fault_plan")
        self.admission = AdmissionController(
            queue_capacity=queue_capacity,
            policy=shed_policy,
            degrade_budget=degrade_budget,
        )
        self.batcher = MicroBatcher(window_seconds, max_batch)
        # Default breaker follows the stream clock, so cooldown expiry is
        # deterministic under SimulatedClock too.
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(clock=self.clock.now)
        )
        self._stream_cache: Optional[VersionedPathCache] = (
            VersionedPathCache(graph, stream_cache_bytes, eviction="lru")
            if stream_cache_bytes > 0
            else None
        )
        # The backend owns decomposition, retries, degradation and the
        # worker pool; the timeline stays here so weight epochs follow the
        # *stream* clock, not the backend's grid index.
        self.backend = BatchQueryService(
            graph,
            window_seconds=window_seconds,
            workers=workers,
            timeline=None,
            **backend_options,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker pool); idempotent."""
        self.backend.close()

    def __enter__(self) -> "StreamingQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def warm(self) -> bool:
        """Pre-build the backend worker pool before traffic starts."""
        return self.backend.warm()

    @property
    def stream_cache(self) -> Optional[VersionedPathCache]:
        return self._stream_cache

    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Ask the run loop to stop gracefully.

        Safe to call from a signal handler: it only flips a flag.  The
        loop stops admitting arrivals that are not yet due, flushes the
        open window, answers everything already admitted, and returns a
        report whose accounting invariant still holds.
        """
        self._drain_requested = True

    @property
    def draining(self) -> bool:
        return self._drain_requested

    def run(self, arrivals: Iterable[TimedQuery]) -> StreamReport:
        """Consume a whole stamped stream and answer it online.

        Simulated clock: the loop jumps between arrival instants and
        window deadlines, so the run is a deterministic function of the
        stream and the configuration.  Real clock: the same loop sleeps
        instead of jumping and dispatch costs genuine wall time.
        """
        events = sorted(arrivals)
        if events and events[0].arrival < 0:
            raise ConfigurationError(
                f"arrival times must be non-negative, got {events[0].arrival!r}"
            )
        events, fresh_journaled = self._journal_admit(events)
        report = StreamReport(total_arrivals=len(events))
        if self.journal is not None:
            report.replayed_arrivals = len(events) - fresh_journaled
        registry = get_registry()
        if registry.enabled:
            registry.counter("streaming.arrivals_total").add(len(events))
        if self.workers > 1:
            self.warm()
        started_at = self.clock.now()
        i = 0
        while i < len(events) or self.admission.depth or self.batcher.pending:
            now = self.clock.now()
            if (
                self.drain_after_seconds is not None
                and now >= self.drain_after_seconds
            ):
                self.request_drain()
            if self._drain_requested and not report.drained:
                report.drained = True
                # Abandon arrivals that are not yet due: they were never
                # admitted, so they leave the totals (and stay pending in
                # the journal for a later --recover run).
                while len(events) > i and events[-1].arrival > now:
                    events.pop()
                    report.unadmitted_arrivals += 1
                report.total_arrivals -= report.unadmitted_arrivals
                logger.info(
                    "drain requested at t=%.3f: %d undue arrivals abandoned",
                    now,
                    report.unadmitted_arrivals,
                )
            self._close_admission_record_if_due(now, report)
            # 1. Admit every arrival that is due: seal on arrival what no
            #    window can help, enqueue the rest, shedding on overflow.
            while i < len(events) and events[i].arrival <= now:
                self._admit(events[i], report)
                i += 1
            set_stream_queue_depth(self.admission.depth)
            # 2. Cut a window whose duration deadline has passed.
            due = self.batcher.cut_if_due(now)
            if due is not None:
                self._dispatch(due, report)
            # 3. Feed admitted queries into the assembler (size trigger
            #    may cut windows mid-feed; dispatch advances the clock).
            while self.admission.depth:
                tq = self.admission.pop()
                for window in self.batcher.offer(tq, self.clock.now()):
                    self._dispatch(window, report)
            # 3b. Draining with nothing left to admit: flush the open
            #     window now instead of waiting out its duration trigger.
            if report.drained and i >= len(events):
                final = self.batcher.flush(self.clock.now())
                if final is not None:
                    self._dispatch(final, report)
                continue
            # 4. Jump (or sleep) to whatever fires next.
            deadline = self.batcher.deadline
            next_arrival = events[i].arrival if i < len(events) else None
            if deadline is None and next_arrival is None:
                break
            if next_arrival is None:
                target = deadline
            elif deadline is None:
                target = next_arrival
            else:
                target = min(deadline, next_arrival)
            assert target is not None
            if self._admission_record is not None:
                # Wake to close the record on schedule, so its journal
                # done-records are flushed even when traffic pauses.
                target = min(
                    target,
                    self._admission_record.opened_at + self.window_seconds,
                )
            if (
                self.drain_after_seconds is not None
                and not self._drain_requested
            ):
                target = min(target, self.drain_after_seconds)
            self.clock.advance_to(target)
        self._close_admission_record(report)
        if self.journal is not None:
            self.journal.flush()
        report.wall_seconds = self.clock.now() - started_at
        report.shed_degraded = self.admission.shed_degraded
        report.shed_dropped = self.admission.shed_dropped
        report.backpressure_stalls = self.admission.backpressure_stalls
        if self._stream_cache is not None:
            report.stream_cache_invalidations = self._stream_cache.invalidations
        if registry.enabled:
            report.metrics = registry.snapshot()
        return report

    # ------------------------------------------------------------------
    def _journal_admit(
        self, events: List[TimedQuery]
    ) -> Tuple[List[TimedQuery], int]:
        """Write-ahead every fresh arrival before the run answers anything.

        Arrivals that already carry a ``seq`` stamp were replayed from the
        journal (their arrival records exist) and are passed through
        untouched; fresh arrivals are stamped and appended.  The flush
        before returning is the WAL guarantee: once the run starts, every
        query it owes is durable.
        """
        if self.journal is None:
            return events, 0
        stamped: List[TimedQuery] = []
        fresh = 0
        replayed = 0
        for tq in events:
            if tq.seq is None:
                tq = replace(tq, seq=self.journal.next_seq())
                self.journal.append_arrival(tq)
                fresh += 1
            else:
                replayed += 1
            stamped.append(tq)
        self.journal.flush()
        record_journal(appended=fresh, replayed=replayed)
        return stamped, fresh

    def _journal_done(self, tq: TimedQuery, outcome: str) -> None:
        if self.journal is not None and tq.seq is not None:
            self.journal.append_done(tq.seq, outcome)

    # ------------------------------------------------------------------
    # Admission stage: seal on arrival, or enqueue for a window
    # ------------------------------------------------------------------
    def _admit(self, tq: TimedQuery, report: StreamReport) -> None:
        """Decide on arrival whether a window can do anything for ``tq``.

        An exact stream-cache hit is sealed at once; with an index, so is
        a miss (one ``ensure_current()`` per epoch, then the query).  Only
        a miss bound for the batch backend shares work with its
        neighbours, and only it goes on to admission control and the
        micro-batcher.
        """
        now = self.clock.now()
        if self._may_answer_on_arrival(tq, now, report):
            pair = self._cache_answer(tq.query)
            if pair is not None:
                self._seal(tq, [pair], _SEALED_CACHE, now, report)
                return
            if self._index is not None:
                if self._index.ensure_current():
                    report.index_customizations += 1
                pairs = self._answer_by_index([tq.query], report.dead_letters)
                self._cache_answers(pairs)
                if self.service_seconds_per_query > 0:
                    self.clock.sleep(self.service_seconds_per_query)
                self._seal(tq, pairs, _SEALED_INDEX, now, report)
                return
        self._enqueue(tq, now, report)

    def _may_answer_on_arrival(
        self, tq: TimedQuery, now: float, report: StreamReport
    ) -> bool:
        """Whether an answer computed right now is one ``tq`` may be given.

        Not when its deadline budget is already spent (the deadline ladder
        decides its fate), and not under a metric that stream time has
        left: an event due while nothing waits is fired here, before the
        answer; while a window is pending it must fire at that window's
        cut, so the arrival joins the window instead.
        """
        if self._stream_cache is None and self._index is None:
            return False
        if (
            self.query_deadline_seconds is not None
            and now >= tq.arrival + self.query_deadline_seconds
        ):
            return False
        if self._event_due(now) is None:
            return True
        if self.admission.depth or self.batcher.pending:
            return False
        # A record never straddles an epoch: close it under the old metric.
        self._close_admission_record(report)
        self._fired_on_arrival += self.timeline.advance_to(now)
        return True

    def _event_due(self, now: float) -> Optional[float]:
        """Instant of the earliest timeline event due by ``now`` and not
        yet fired, if there is one."""
        if self.timeline is None:
            return None
        due = self.timeline.next_event_at
        return due if due is not None and due <= now else None

    def _enqueue(self, tq: TimedQuery, now: float, report: StreamReport) -> None:
        """Admission control in front of the micro-batcher, shedding on
        overflow (degrade before drop)."""
        outcome = self.admission.admit(tq)
        if outcome == ADMITTED:
            return
        if outcome == SHED_DROP:
            record_stream_shed(dropped=1)
            record_dead_letters(1)
            report.dead_letters.append(
                DeadLetterRecord(
                    source=tq.query.source,
                    target=tq.query.target,
                    reason=REASON_SHED,
                    stage=STAGE_ADMISSION,
                    detail=(
                        f"admission queue full "
                        f"(capacity {self.admission.queue_capacity})"
                    ),
                )
            )
            self._journal_done(tq, OUTCOME_DEAD_LETTER)
            return
        # Shed-degrade: answered right now by plain Dijkstra — the query
        # loses batching/caching benefit but the answer stays exact.
        record_stream_shed(degraded=1)
        pairs = self._answer_by_dijkstra(
            [tq.query], report.dead_letters, reason=REASON_SHED
        )
        # The queue is full, so an event that is due has not fired (it waits
        # for the pending window's cut): the answer is under the metric in
        # force until that event, and is stamped inside that metric's span.
        due = self._event_due(now)
        instant = now if due is None else math.nextafter(due, -math.inf)
        self._seal(tq, pairs, _SEALED_SHED, instant, report)

    def _seal(
        self,
        tq: TimedQuery,
        pairs: List[AnswerPair],
        path: str,
        instant: float,
        report: StreamReport,
    ) -> None:
        """Seal one arrival's fate now, into the open admission record.

        ``pairs`` is its answer, or empty when answering dead-lettered it;
        ``instant`` the stream time whose metric the answer was computed
        under.
        """
        self._close_admission_record_if_due(instant, report)
        record = self._admission_record
        if record is None:
            record = self._admission_record = _OpenAdmissionRecord(
                opened_at=instant,
                cut_at=instant,
                completed_at=instant,
                timeline_events=self._fired_on_arrival,
                first_latency=len(report.latencies),
            )
            self._fired_on_arrival = 0
        record.queries += 1
        record.cut_at = instant
        record.completed_at = completion = self.clock.now()
        if path == _SEALED_CACHE:
            record.cache_hits += 1
        elif path == _SEALED_INDEX:
            record.index_served += 1
        if pairs:
            report.answers.extend(pairs)
            report.latencies.append(max(0.0, completion - tq.arrival))
            self._journal_done(tq, OUTCOME_ANSWERED)
        else:
            self._journal_done(tq, OUTCOME_DEAD_LETTER)
        if self.max_batch is not None and record.queries >= self.max_batch:
            self._close_admission_record(report)

    def _close_admission_record_if_due(
        self, now: float, report: StreamReport
    ) -> None:
        record = self._admission_record
        if record is not None and now >= record.opened_at + self.window_seconds:
            self._close_admission_record(report)

    def _close_admission_record(self, report: StreamReport) -> None:
        """Append the open admission record to the report and flush the
        journal, so what was sealed on arrival is as durable as a window.

        Called before a window appends its own record, before any timeline
        advance that can fire an event, at the window cadence
        (``max_batch`` seals / ``window_seconds`` open) and at end of run.
        Metrics are published here, once per record, not once per query.
        """
        record = self._admission_record
        if record is None:
            return
        self._admission_record = None
        report.windows.append(
            StreamWindowRecord(
                index=-1,
                trigger=TRIGGER_ADMISSION,
                opened_at=record.opened_at,
                cut_at=record.cut_at,
                completed_at=record.completed_at,
                queries=record.queries,
                cache_hits=record.cache_hits,
                report=None,
                timeline_events=record.timeline_events,
                index_served=record.index_served > 0,
            )
        )
        report.sealed_at_admission_cache += record.cache_hits
        report.sealed_at_admission_index += record.index_served
        self._count_cache_probes(
            report, hits=record.cache_hits, misses=record.index_served
        )
        record_admission_sealed(record.cache_hits, record.index_served)
        if record.index_served:
            self._count_index_served_record()
        self._publish_latencies(report, record.first_latency)
        if self.journal is not None:
            self.journal.flush()

    def _count_cache_probes(
        self, report: StreamReport, hits: int, misses: int
    ) -> None:
        """Book one record's arrivals as stream-cache hits or misses.

        Counted per arrival when its fate is sealed, not per lookup: a miss
        probed at admission and again at its window's cut is one miss.
        """
        cache = self._stream_cache
        if cache is None:
            return
        report.stream_cache_hits += hits
        report.stream_cache_misses += misses
        flushed = cache.invalidations - self._invalidations_published
        self._invalidations_published = cache.invalidations
        record_stream_cache(hits, misses, flushed)

    def _count_index_served_record(self) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter("streaming.index_served_windows").add(1)

    def _publish_latencies(self, report: StreamReport, first: int) -> None:
        registry = get_registry()
        if registry.enabled:
            histogram = registry.histogram(
                "streaming.latency_seconds", TIME_BUCKETS
            )
            for latency in report.latencies[first:]:
                histogram.observe(latency)

    # ------------------------------------------------------------------
    # Window stage: what admission enqueued, cut by the micro-batcher
    # ------------------------------------------------------------------
    def _dispatch(self, window: MicroWindow, report: StreamReport) -> None:
        # Records go out in completion order and never straddle an epoch:
        # what was sealed on arrival is closed before this window advances
        # the timeline or appends its own record.
        self._close_admission_record(report)
        fired = self._fired_on_arrival
        self._fired_on_arrival = 0
        if self.timeline is not None and window.cut_at > self.timeline.clock:
            # Weight epochs follow the stream clock; a version bump here
            # invalidates the cross-window cache (checked at next probe),
            # flushes the dynamic session and re-forks the worker pool.
            fired += self.timeline.advance_to(window.cut_at)
        record_stream_window(len(window), window.trigger, window.span_seconds)
        registry = get_registry()
        backend_report: Optional[WindowReport] = None
        breaker_degraded = False
        index_served = False
        with registry.span(
            "stream_window",
            index=window.index,
            trigger=window.trigger,
            queries=len(window),
        ):
            # Probed again although admission already missed: a path
            # inserted by an earlier window of the same backlog must hit.
            cache_pairs, missed = self._probe_cache(window)
            searched: List[AnswerPair] = []
            # Queries whose stream-clock budget was spent waiting in the
            # backlog never reach a search: deterministic dead-letter.
            live, already_expired = self._partition_expired(missed)
            for tq in already_expired:
                self._dead_letter_deadline(
                    tq, report, detail="budget spent waiting for dispatch"
                )
            if live:
                batch = QuerySet(tq.query for tq in live)
                if self._index is not None:
                    # The timeline advance above happens *before* this
                    # point, so a fired epoch has already bumped
                    # ``graph.version`` — ensure_current() re-customizes
                    # and the window is answered at the new metric.
                    if self._index.ensure_current():
                        report.index_customizations += 1
                    index_served = True
                    searched = self._answer_by_index(batch, report.dead_letters)
                    self._cache_answers(searched)
                elif not self.breaker.allow():
                    breaker_degraded = True
                    searched = self._answer_by_dijkstra(
                        batch, report.dead_letters
                    )
                else:
                    try:
                        backend_report = self.backend.process_window(
                            batch,
                            index=window.index,
                            deadline=self._backend_deadline(live),
                        )
                    except Exception as exc:
                        self.breaker.record_failure()
                        logger.warning(
                            "window %d backend dispatch failed (%s: %s); "
                            "degrading to per-query Dijkstra",
                            window.index,
                            type(exc).__name__,
                            exc,
                        )
                        breaker_degraded = True
                        searched = self._answer_by_dijkstra(
                            batch, report.dead_letters
                        )
                    else:
                        self.breaker.record_success()
                        kept, searched = self._degrade_deadline_letters(
                            backend_report.dead_letters, live, report
                        )
                        report.dead_letters.extend(kept)
                        if backend_report.answer is not None:
                            searched.extend(backend_report.answer.answers)
                            self._cache_answers(backend_report.answer.answers)
        if breaker_degraded and registry.enabled:
            registry.counter("streaming.breaker_degraded_windows").add(1)
        if index_served:
            self._count_index_served_record()
        self._count_cache_probes(
            report, hits=len(cache_pairs), misses=len(missed)
        )
        if self.service_seconds_per_query > 0:
            # Deterministic processing cost: only meaningful on the
            # simulated clock (the real clock pays genuine wall time).
            self.clock.sleep(self.service_seconds_per_query * len(window))
        completion = self.clock.now()
        # Fates are sealed per arrival, not per OD pair: two arrivals of one
        # pair may end differently (one expired in the backlog, one live).
        # Each answer the searches returned settles one live arrival of its
        # pair; a live arrival left over was dead-lettered by its search.
        owed = Counter((q.source, q.target) for q, _ in searched)
        unanswered = {id(tq) for tq in already_expired}
        for tq in live:
            key = (tq.query.source, tq.query.target)
            if owed[key]:
                owed[key] -= 1
            else:
                unanswered.add(id(tq))
        first_latency = len(report.latencies)
        for tq in window.arrivals:
            if id(tq) in unanswered:
                self._journal_done(tq, OUTCOME_DEAD_LETTER)
            else:
                report.latencies.append(max(0.0, completion - tq.arrival))
                self._journal_done(tq, OUTCOME_ANSWERED)
        self._publish_latencies(report, first_latency)
        report.answers.extend(cache_pairs)
        report.answers.extend(searched)
        report.windows.append(
            StreamWindowRecord(
                index=window.index,
                trigger=window.trigger,
                opened_at=window.opened_at,
                cut_at=window.cut_at,
                completed_at=completion,
                queries=len(window),
                cache_hits=len(cache_pairs),
                report=backend_report,
                breaker_degraded=breaker_degraded,
                timeline_events=fired,
                index_served=index_served,
            )
        )
        if self.journal is not None:
            self.journal.flush()
        if self._fault_plan is not None and self._fault_plan.stream_fault(
            window.index
        ):
            # The chaos drill's kill -9: die without cleanup *after* the
            # journal flush, so recovery sees this window sealed and every
            # later arrival still pending.
            logger.warning(
                "fault plan: killing serving process after window %d",
                window.index,
            )
            os._exit(FAULT_EXIT_CODE)

    # ------------------------------------------------------------------
    def _partition_expired(
        self, missed: List[TimedQuery]
    ) -> Tuple[List[TimedQuery], List[TimedQuery]]:
        """Split cache misses into still-live and budget-already-spent."""
        if self.query_deadline_seconds is None or not missed:
            return missed, []
        now = self.clock.now()
        live: List[TimedQuery] = []
        expired: List[TimedQuery] = []
        for tq in missed:
            if now >= tq.arrival + self.query_deadline_seconds:
                expired.append(tq)
            else:
                live.append(tq)
        return live, expired

    def _backend_deadline(
        self, missed: List[TimedQuery]
    ) -> Optional[Deadline]:
        """Arm a real-monotonic deadline covering the tightest query budget.

        Stream-clock budgets do not transfer to the backend's wall-clock
        searches directly; the window gets the smallest remaining budget
        re-armed against real time, which bounds how long any cooperative
        kernel may run before the check cuts it off.
        """
        if self.query_deadline_seconds is None or not missed:
            return None
        now = self.clock.now()
        budget = min(
            tq.arrival + self.query_deadline_seconds - now for tq in missed
        )
        return Deadline(budget)

    def _dead_letter_deadline(
        self, tq: TimedQuery, report: StreamReport, detail: str
    ) -> None:
        report.dead_letters.append(
            DeadLetterRecord(
                source=tq.query.source,
                target=tq.query.target,
                reason=REASON_DEADLINE_EXCEEDED,
                stage=STAGE_DISPATCH,
                error="DeadlineExceededError",
                detail=detail,
            )
        )
        report.deadline_expired += 1
        record_dead_letters(1)
        record_deadline(expired=1)

    def _degrade_deadline_letters(
        self,
        letters: List[DeadLetterRecord],
        missed: List[TimedQuery],
        report: StreamReport,
    ) -> Tuple[List[DeadLetterRecord], List[AnswerPair]]:
        """Give deadline-cut queries one last chance inside their budget.

        The backend dead-letters whole units when a batch deadline fires;
        individual queries in the unit may still have stream-clock budget
        left (the batch shared one deadline).  Those are re-answered by
        plain Dijkstra under their own remaining budget — the degrade
        rung of the deadline ladder.  Everything else passes through.
        """
        from ..search.dijkstra import dijkstra

        kept: List[DeadLetterRecord] = []
        recovered: List[AnswerPair] = []
        by_key: Dict[Tuple[int, int], TimedQuery] = {}
        for tq in missed:
            by_key.setdefault((tq.query.source, tq.query.target), tq)
        for letter in letters:
            if letter.reason != REASON_DEADLINE_EXCEEDED:
                kept.append(letter)
                continue
            tq = by_key.get((letter.source, letter.target))
            remaining = (
                tq.arrival + self.query_deadline_seconds - self.clock.now()
                if tq is not None and self.query_deadline_seconds is not None
                else 0.0
            )
            if tq is None or remaining <= 0:
                report.deadline_expired += 1
                kept.append(letter)
                continue
            try:
                with use_deadline(Deadline(remaining)):
                    result = dijkstra(
                        self.graph, letter.source, letter.target
                    )
            except Exception:
                report.deadline_expired += 1
                kept.append(letter)
                continue
            if not math.isfinite(result.distance):
                report.deadline_expired += 1
                kept.append(letter)
                continue
            recovered.append((tq.query, result))
            report.deadline_degraded += 1
            record_deadline(degraded=1)
        return kept, recovered

    # ------------------------------------------------------------------
    def _cache_answer(self, q: Query) -> Optional[AnswerPair]:
        """``q`` answered from the stream cache, or ``None`` unless the hit
        is exact."""
        if self._stream_cache is None:
            return None
        hit = self._stream_cache.lookup(q.source, q.target)
        if hit is None or not hit.exact:
            return None
        return (
            q,
            PathResult(
                q.source,
                q.target,
                hit.distance,
                list(hit.path),
                visited=0,
                exact=True,
            ),
        )

    def _probe_cache(
        self, window: MicroWindow
    ) -> Tuple[List[AnswerPair], List[TimedQuery]]:
        """Split a window into cache-answered pairs and misses to dispatch."""
        if self._stream_cache is None:
            return [], list(window.arrivals)
        pairs: List[AnswerPair] = []
        missed: List[TimedQuery] = []
        for tq in window.arrivals:
            pair = self._cache_answer(tq.query)
            if pair is not None:
                pairs.append(pair)
            else:
                missed.append(tq)
        return pairs, missed

    def _cache_answers(self, pairs: List[AnswerPair]) -> None:
        """Feed exact answered paths into the cross-window cache."""
        if self._stream_cache is None:
            return
        for _, result in pairs:
            path = getattr(result, "path", None)
            if (
                result.exact
                and path
                and len(path) >= 2
                and math.isfinite(result.distance)
            ):
                try:
                    self._stream_cache.insert(path)
                except Exception:  # pragma: no cover - defensive
                    # A path that does not validate against the current
                    # graph must never poison the cache; skip it.
                    continue

    def _answer_by_index(
        self,
        batch: Iterable[Query],
        dead_letters: List[DeadLetterRecord],
    ) -> List[AnswerPair]:
        """Answer cache misses from the customized hierarchy (exact).

        Per-query degradation: an index query that fails unexpectedly
        falls back to plain Dijkstra for that query alone, so one bad
        query can never dead-letter its whole window.  Accounting holds
        regardless: every query returns answered or dead-lettered.
        """
        from ..search.dijkstra import dijkstra

        index = self._index
        assert index is not None
        n = self.graph.num_vertices
        pairs: List[AnswerPair] = []
        letters = 0
        for q in batch:
            if q.source >= n or q.target >= n:
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_INVALID_QUERY,
                        stage=STAGE_VALIDATION,
                        detail=f"vertex id out of range (|V| = {n})",
                    )
                )
                letters += 1
                continue
            try:
                result = index.query(q.source, q.target)
            except Exception as exc:
                logger.warning(
                    "index query %d->%d failed (%s: %s); "
                    "degrading this query to Dijkstra",
                    q.source,
                    q.target,
                    type(exc).__name__,
                    exc,
                )
                try:
                    result = dijkstra(self.graph, q.source, q.target)
                except Exception as exc2:
                    dead_letters.append(
                        DeadLetterRecord(
                            source=q.source,
                            target=q.target,
                            reason=REASON_WINDOW_DEGRADED,
                            stage=STAGE_SESSION,
                            error=type(exc2).__name__,
                            detail=str(exc2),
                        )
                    )
                    letters += 1
                    continue
            if not math.isfinite(result.distance):
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_NO_PATH,
                        stage=STAGE_SESSION,
                        error="NoPathError",
                        detail=f"no path from {q.source} to {q.target}",
                    )
                )
                letters += 1
                continue
            pairs.append((q, result))
        if letters:
            record_dead_letters(letters)
        return pairs

    def _answer_by_dijkstra(
        self,
        batch: Iterable[Query],
        dead_letters: List[DeadLetterRecord],
        reason: str = REASON_WINDOW_DEGRADED,
    ) -> List[AnswerPair]:
        """Exact per-query fallback: plain Dijkstra, no batching benefit.

        Used for shed queries and for windows the breaker keeps away from
        the backend.  Unanswerable queries dead-letter with ``reason``.
        """
        from ..search.dijkstra import dijkstra

        n = self.graph.num_vertices
        pairs: List[AnswerPair] = []
        letters = 0
        for q in batch:
            if q.source >= n or q.target >= n:
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_INVALID_QUERY,
                        stage=STAGE_VALIDATION,
                        detail=f"vertex id out of range (|V| = {n})",
                    )
                )
                letters += 1
                continue
            try:
                result = dijkstra(self.graph, q.source, q.target)
            except DeadlineExceededError as exc:
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_DEADLINE_EXCEEDED,
                        stage=STAGE_SESSION,
                        error="DeadlineExceededError",
                        detail=str(exc),
                    )
                )
                record_deadline(expired=1, preempted=1)
                letters += 1
                continue
            except Exception as exc:
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=reason,
                        stage=STAGE_SESSION,
                        error=type(exc).__name__,
                        detail=str(exc),
                    )
                )
                letters += 1
                continue
            if not math.isfinite(result.distance):
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_NO_PATH,
                        stage=STAGE_SESSION,
                        error="NoPathError",
                        detail=f"no path from {q.source} to {q.target}",
                    )
                )
                letters += 1
                continue
            pairs.append((q, result))
        if letters:
            record_dead_letters(letters)
        return pairs
