"""The timed phases: set-up, capacity replays, paced open-loop runs.

Every replay builds its own network, freezes it and constructs its own
service, so each one is also a ``setup_s`` sample and a traffic timeline
never leaks weights from one replay into the next.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import BatchAnswer, BatchProcessor, QuerySet, StreamingQueryService, StreamReport
from repro.queries.arrivals import TimedQuery
from repro.streaming import latency_percentile

from .workloads import Workload, make_graph, make_timeline

T = TypeVar("T")

#: ``repro serve`` runs the serial engine path unless told otherwise.
SERVE_WORKERS = 0
#: Definition 1's batch period, used to pace ``offline_batch``.
BATCH_WINDOW_S = 1.0
PACED_METHOD = "slc-s"
#: A paced run whose timed wake-ups ran later than this (p99) is not a
#: measurement of the program; it is repeated once, then fails the run.
MAX_LAG_MS = 5.0


@dataclass
class Tally:
    """Operations attempted and failed across every phase of one run."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: List[str] = field(default_factory=list)

    def wrong(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    def account(self, report: StreamReport) -> None:
        self.attempted += report.total_arrivals
        self.failed += len(report.dead_letters)
        if report.unaccounted_queries:
            self.failed += abs(report.unaccounted_queries)
            self.wrong(f"{report.unaccounted_queries} unaccounted queries")

    def account_batch(self, queries: QuerySet, answer: BatchAnswer) -> None:
        self.attempted += len(queries)
        missing = len(queries) - answer.num_queries
        if missing:
            self.failed += abs(missing)
            self.wrong(f"{answer.method}: {missing} of {len(queries)} unanswered")


class PacedClock:
    """A real stream clock, zeroed by :meth:`start`, that records how late
    each timed wake-up of the serving loop ran (the generator's lag)."""

    is_real = True

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self.lags: List[float] = []

    def start(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def advance_to(self, instant: float) -> None:
        wait = instant - self.now()
        if wait > 0:
            time.sleep(wait)
            self.lags.append(self.now() - instant)


def quiesce() -> None:
    """Before every set-up: collect, then park everything alive — the
    workload, the oracle's map, the previous report — in the permanent
    generation, so a full collection inside a timed region traverses the
    program's heap and not the benchmark's (unparked, the benchmark's own
    objects were a third of ``serve_cache_hot``'s capacity wall)."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def percentile_ms(samples_s: Sequence[float], p: float) -> float:
    return latency_percentile(sorted(samples_s), p) * 1000.0


# ----------------------------------------------------------------------
# CPU-bound timings, rescaled to a reference host speed
# ----------------------------------------------------------------------
#: What :func:`calibrate` takes on the sandbox host when its neighbours are quiet.
CALIBRATION_REFERENCE_S = 0.025


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of heap and dict work.

    The sandbox host's effective CPU speed moves by a fifth for seconds at a
    time (the same loop: 21 to 34 ms within three minutes), which put 11-19 %
    between the capacities of ten runs.  A CPU-bound region is therefore
    bracketed by two of these loops and its wall time rescaled by their mean
    over the reference, which brought ten runs within 4-6 %.  Paced latencies
    are wall-clock facts and are never rescaled.
    """
    start = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    seen: Dict[int, int] = {}
    total = 0.0
    for i in range(40000):
        x = (i * 7919) % 10007
        heapq.heappush(heap, (x * 0.5, i))
        seen[x] = i
        if i & 1:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - start


@dataclass
class Seconds:
    raw: float  #: as measured
    scaled: float  #: what it would have taken at the reference host speed


def timed(fn: Callable[[], T]) -> Tuple[T, Seconds]:
    before = calibrate()
    start = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - start
    speed = (before + calibrate()) / 2.0
    return value, Seconds(raw, raw * CALIBRATION_REFERENCE_S / speed)


# ----------------------------------------------------------------------
# Set-up: everything up to the first query being acceptable
# ----------------------------------------------------------------------
def setup_serve(wl: Workload, clock="simulated") -> Tuple[StreamingQueryService, Seconds]:
    def build() -> StreamingQueryService:
        graph = make_graph(wl.spec)
        graph.freeze()
        service = StreamingQueryService(
            graph,
            workers=SERVE_WORKERS,
            clock=clock,
            timeline=make_timeline(graph, wl.spec, wl.seed),
            index=wl.spec.index,
        )
        service.warm()
        return service

    return timed(build)


def setup_offline(wl: Workload, workers: int = 1) -> Tuple[BatchProcessor, Seconds]:
    def build() -> BatchProcessor:
        graph = make_graph(wl.spec)
        graph.freeze()
        return BatchProcessor(graph, workers=workers)

    return timed(build)


# ----------------------------------------------------------------------
# One capacity replay
# ----------------------------------------------------------------------
@dataclass
class Replay:
    queries: int
    #: Each separately timed chunk of identical work: the one run of a serve
    #: replay, one ``process`` call per offline method.
    chunks: Dict[str, Seconds]
    setup: Seconds
    #: serve: the StreamReport; offline: ``{method: (queries, BatchAnswer)}``.
    result: object

    @property
    def wall_s(self) -> float:
        return sum(chunk.raw for chunk in self.chunks.values())

    @property
    def scaled_s(self) -> float:
        return sum(chunk.scaled for chunk in self.chunks.values())


def replay_serve(wl: Workload, tally: Tally) -> Replay:
    """The stamped capacity stream back-to-back under the simulated clock:
    windows, cache hits and visited counts are a function of the seed."""
    quiesce()
    service, setup = setup_serve(wl)
    gc.collect()
    with service:
        report, run = timed(lambda: service.run(wl.capacity_stream))
    tally.account(report)
    return Replay(len(wl.capacity_stream), {"run": run}, setup, report)


def offline_batches(wl: Workload) -> List[Tuple[str, QuerySet]]:
    return [
        ("slc-s", wl.cache_queries),
        ("zlc", wl.cache_queries),
        ("r2r-s", wl.r2r_queries),
    ]


def replay_offline(wl: Workload, tally: Tally) -> Replay:
    """One pass: every batch through its method."""
    quiesce()
    processor, setup = setup_offline(wl)
    gc.collect()
    answers: Dict[str, Tuple[QuerySet, BatchAnswer]] = {}
    chunks: Dict[str, Seconds] = {}
    for method, queries in offline_batches(wl):
        answer, chunks[method] = timed(lambda: processor.process(queries, method))
        answers[method] = (queries, answer)
        tally.account_batch(queries, answer)
    return Replay(sum(len(q) for q, _ in answers.values()), chunks, setup, answers)


def replay(wl: Workload, tally: Tally) -> Replay:
    return (replay_offline if wl.spec.kind == "offline" else replay_serve)(wl, tally)


@dataclass
class Capacity:
    qps: float
    reps: int
    setups: List[float]
    last: Replay


def capacity_phase(
    run_once: Callable[[], Replay], budget_s: float, min_reps: int = 5
) -> Capacity:
    """Replays until the time budget is used, and never fewer than ``min_reps``.

    The work of a chunk is identical in every replay, so its typical cost is
    the median over replays of its speed-scaled time; replays are kept short
    (~0.5 s) so that a neighbour's burst spoils a replay or two, not all of
    them.  Only the last replay's result is kept: a report holds every
    answer's path.
    """
    chunks: Dict[str, List[float]] = {}
    setups: List[float] = []
    start = time.perf_counter()
    while True:
        last = run_once()
        setups.append(last.setup.scaled)
        for name, chunk in last.chunks.items():
            chunks.setdefault(name, []).append(chunk.scaled)
        elapsed = time.perf_counter() - start
        if len(setups) >= min_reps and elapsed + elapsed / len(setups) > budget_s:
            typical = sum(statistics.median(walls) for walls in chunks.values())
            return Capacity(last.queries / typical, len(setups), setups, last)


# ----------------------------------------------------------------------
# Paced, open loop, real clock
# ----------------------------------------------------------------------
@dataclass
class Paced:
    seconds: float
    arrivals: int
    #: Seconds from each query's *stamped* arrival to its answer, and the
    #: stamps themselves when every arrival was answered in stamp order.
    latencies: List[float]
    stamps: Optional[List[float]]
    lag_ms_p99: float
    setup_s: float
    late_or_lost: int
    stream: List[TimedQuery]
    report: Optional[StreamReport] = None

    def p(self, q: float) -> float:
        """The ``q`` quantile of a typical second of the run: the run is cut
        into whole-second bins by stamp, each bin gives its own quantile, and
        the median bin is reported.  A host burst (or the cold first window)
        spoils a bin or two, not the figure.  Pooled when stamps are unknown."""
        bins = max(1, int(self.seconds))
        if self.stamps is None or bins == 1:
            return percentile_ms(self.latencies, q)
        width = self.seconds / bins
        binned: List[List[float]] = [[] for _ in range(bins)]
        for stamp, latency in zip(self.stamps, self.latencies):
            binned[min(bins - 1, int(stamp / width))].append(latency)
        return statistics.median(percentile_ms(b, q) for b in binned if b)

    def pooled(self, q: float) -> float:
        return percentile_ms(self.latencies, q)


def _paced_serve(wl: Workload, stream: List[TimedQuery], tally: Tally):
    quiesce()
    clock = PacedClock()
    service, setup = setup_serve(wl, clock)
    gc.collect()
    with service:
        clock.start()
        report = service.run(stream)
    tally.account(report)
    lost = len(report.dead_letters) + abs(report.unaccounted_queries)
    # Latencies are recorded window by window in arrival order; a query shed
    # at admission is recorded out of turn, and then the stamps are unknown.
    aligned = not lost and not report.shed_degraded
    stamps = [tq.arrival for tq in sorted(stream)] if aligned else None
    return report.latencies, stamps, clock.lags, setup.scaled, lost, report


def _paced_offline(wl: Workload, stream: List[TimedQuery], tally: Tally):
    """Definition 1 as a scheduler: the queries stamped within one period
    form a batch, submitted when the period closes; a slow batch delays the
    next one, and each query is timed from its own stamp."""
    quiesce()
    processor, setup = setup_offline(wl)
    windows: List[List[TimedQuery]] = []
    for tq in stream:
        k = int(tq.arrival // BATCH_WINDOW_S)
        while len(windows) <= k:
            windows.append([])
        windows[k].append(tq)
    latencies: List[float] = []
    stamps: List[float] = []
    lags: List[float] = []
    lost = 0
    gc.collect()
    t0 = time.monotonic()
    for k, window in enumerate(windows):
        close = (k + 1) * BATCH_WINDOW_S
        wait = close - (time.monotonic() - t0)
        if wait > 0:
            # Only a handful of wake-ups per run: sleep short and spin the
            # last 2 ms so one late timer cannot invalidate the run.
            time.sleep(max(0.0, wait - 0.002))
            while time.monotonic() - t0 < close:
                pass
            lags.append(time.monotonic() - t0 - close)
        if not window:
            continue
        batch = QuerySet(tq.query for tq in window)
        answer = processor.process(batch, PACED_METHOD)
        done = time.monotonic() - t0
        tally.account_batch(batch, answer)
        lost += len(batch) - answer.num_queries
        latencies.extend(done - tq.arrival for tq in window)
        stamps.extend(tq.arrival for tq in window)
    return latencies, stamps, lags, setup.scaled, lost, None


def paced_phase(wl: Workload, rate: float, seconds: float, tally: Tally) -> Paced:
    stream = wl.paced_stream(rate, seconds)
    run = _paced_offline if wl.spec.kind == "offline" else _paced_serve
    for attempt in (1, 2):
        latencies, stamps, lags, setup_s, lost, report = run(wl, stream, tally)
        lag = percentile_ms(lags, 0.99)
        if lag <= MAX_LAG_MS:
            break
        tally.notes.append(f"paced {rate:g} qps: lag p99 {lag:.2f} ms (attempt {attempt})")
    else:
        tally.wrong(f"paced {rate:g} qps invalid twice: generator lag p99 {lag:.2f} ms")
    slo_s = wl.spec.slo_ms / 1000.0
    late = sum(1 for x in latencies if x > slo_s)
    return Paced(seconds, len(stream), latencies, stamps, lag, setup_s, late + lost, stream, report)
