"""A real multiprocess execution engine for decomposed batches.

:mod:`repro.analysis.parallel` predicts the k-server makespan with an LPT
simulation; this engine actually runs the dispatch with ``k`` worker
processes and reports what happened, so prediction and measurement can be
compared side by side (Figure 8).

Design
------
* **Work units are indivisible.**  A unit is one query cluster (or a
  singleton query wrapped as a cluster): its Local Cache / R2R state is
  private to it, so a unit never crosses workers and workers never share
  mutable state.
* **Longest-estimated-first dispatch.**  Units are submitted in
  descending order of estimated cost (summed Euclidean query lengths — the
  same C(q) proxy the decomposers use), which is exactly the greedy that
  makes LPT's 4/3 bound apply to the pool's work-conserving schedule.
* **Fork-time graph sharing.**  On fork platforms the graph and answerer
  are inherited copy-on-write; on spawn platforms a pickled payload
  rebuilds them once per worker.  The pool is kept alive across
  :meth:`ParallelBatchEngine.execute` calls and transparently rebuilt when
  ``graph.version`` changes (a weight epoch invalidates worker snapshots).
* **Deterministic merge.**  Per-unit answers are merged in original
  cluster order, so for deterministic processing orders (``longest``) the
  merged :class:`~repro.core.results.BatchAnswer` is identical — paths,
  distances, and accounting — to the single-process answerer's output.
* **Resilience.**  A failed unit is retried under a bounded
  :class:`~repro.resilience.RetryPolicy` (exponential backoff,
  deterministic jitter); a unit that exhausts its retries is quarantined
  and walks the degradation ladder (in-process cache answerer, then
  singleton queries answered by plain Dijkstra), with unanswerable
  queries landing in the :class:`~repro.resilience.DeadLetterRecord` list
  of the :class:`ExecutionReport` instead of aborting the batch.  A
  :class:`~repro.resilience.CircuitBreaker` trips the engine to serial
  in-process execution after repeated pool failures.  A seeded
  :class:`~repro.resilience.FaultPlan` can inject unit crashes, hangs,
  worker exits, and pool-construction breaks to exercise all of it
  deterministically.  Queries are never silently dropped: every query is
  either answered or dead-lettered with a reason.
"""

from __future__ import annotations

import logging
import math
import multiprocessing as mp
import pickle
import time
from collections import deque
from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.clusters import Decomposition, QueryCluster
from ..core.local_cache import KnownAnswers
from ..core.results import BatchAnswer
from ..exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectionError,
    UnitTimeoutError,
)
from ..network.csr import SharedCSR, share_csr
from ..obs import (
    MetricsRegistry,
    MetricsSnapshot,
    TIME_BUCKETS,
    get_registry,
    record_deadline,
    record_spawn_payload,
    record_watchdog,
    use_registry,
)
from ..queries.query import QuerySet
from ..resilience import (
    CircuitBreaker,
    DeadLetterRecord,
    Deadline,
    FaultPlan,
    OPEN,
    REASON_DEADLINE_EXCEEDED,
    REASON_INVALID_QUERY,
    REASON_NO_PATH,
    REASON_QUARANTINE_FAILED,
    RetryPolicy,
    STAGE_DISPATCH,
    STAGE_QUARANTINE,
    STAGE_VALIDATION,
    WorkerHungError,
    WorkerWatchdog,
    use_deadline,
)
from . import worker

logger = logging.getLogger(__name__)


@dataclass
class UnitTrace:
    """What happened to one work unit."""

    index: int  #: position of the cluster in the decomposition
    queries: int
    estimate: float  #: dispatch priority (summed Euclidean lengths)
    worker: int  #: worker pid, or 0 for in-process execution
    queue_wait_seconds: float  #: submit-to-pickup latency
    busy_seconds: float  #: answering time inside the worker
    fallback: bool = False  #: answered in-process after a worker failure
    attempts: int = 1  #: dispatch attempts spent on the unit (1 = first try)
    quarantined: bool = False  #: exhausted retries; degradation ladder answered it


@dataclass
class WorkerStats:
    """Aggregate over the units one worker processed."""

    worker: int
    units: int
    busy_seconds: float


@dataclass
class ExecutionReport:
    """Measured counterpart of the LPT :class:`ScheduleResult`."""

    requested_workers: int
    workers: int
    start_method: str
    wall_seconds: float = 0.0
    units: List[UnitTrace] = field(default_factory=list)
    #: Fleet-wide metrics merged from the per-unit worker registries
    #: (``None`` when no registry was active during :meth:`execute`).
    metrics: Optional[MetricsSnapshot] = None
    #: Queries the engine gave up on (validation failures, no-path,
    #: exhausted quarantine ladder) — never silently dropped.
    dead_letters: List[DeadLetterRecord] = field(default_factory=list)
    #: The circuit breaker forced this batch to serial in-process mode.
    breaker_tripped: bool = False
    #: Injected faults that fired during this batch, by kind.
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Unit attempts abandoned because ``unit_timeout`` expired.
    unit_timeouts: int = 0

    @property
    def fallbacks(self) -> int:
        return sum(1 for u in self.units if u.fallback)

    @property
    def retries(self) -> int:
        """Re-dispatches beyond each unit's first attempt."""
        return sum(max(0, u.attempts - 1) for u in self.units)

    @property
    def quarantined_units(self) -> int:
        return sum(1 for u in self.units if u.quarantined)

    @property
    def faults_injected(self) -> int:
        return sum(self.faults_by_kind.values())

    @property
    def total_busy_seconds(self) -> float:
        return sum(u.busy_seconds for u in self.units)

    @property
    def mean_queue_wait_seconds(self) -> float:
        if not self.units:
            return 0.0
        return sum(u.queue_wait_seconds for u in self.units) / len(self.units)

    @property
    def speedup(self) -> float:
        """Total busy time / wall time: achieved parallelism.

        An empty batch (zero wall time) reports 0.0 — not ``workers`` —
        so dashboards never show phantom full-parallel speedup for
        windows that did nothing.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_busy_seconds / self.wall_seconds

    @property
    def utilisation(self) -> float:
        return self.speedup / self.workers if self.workers else 0.0

    def worker_stats(self) -> List[WorkerStats]:
        by_pid: Dict[int, WorkerStats] = {}
        for u in self.units:
            stats = by_pid.get(u.worker)
            if stats is None:
                stats = by_pid[u.worker] = WorkerStats(u.worker, 0, 0.0)
            stats.units += 1
            stats.busy_seconds += u.busy_seconds
        return sorted(by_pid.values(), key=lambda s: s.worker)

    def schedule_result(self):
        """This run as a measured :class:`~repro.analysis.parallel.ScheduleResult`.

        Plugs into the same reporting as the LPT simulation so measured and
        predicted makespans render side by side.
        """
        from ..analysis.parallel import ScheduleResult

        per_server = [s.busy_seconds for s in self.worker_stats()]
        while len(per_server) < self.workers:
            per_server.append(0.0)
        return ScheduleResult(
            num_servers=self.workers,
            makespan_seconds=self.wall_seconds,
            total_work_seconds=self.total_busy_seconds,
            per_server_seconds=per_server,
            source="measured",
            mean_queue_wait_seconds=self.mean_queue_wait_seconds,
            fallback_units=self.fallbacks,
            metrics=self.metrics,
        )


@dataclass
class ParallelOutcome:
    """An answered batch plus the execution trace that produced it."""

    answer: BatchAnswer
    report: ExecutionReport


@dataclass
class _Pending:
    """One in-flight pool submission awaiting its result."""

    index: int
    cluster: QueryCluster
    attempt: int
    submitted: float
    future: object


class ParallelBatchEngine:
    """Answer decomposed batches with ``workers`` processes.

    Parameters
    ----------
    graph:
        The road network (shared with workers at fork time, or pickled
        once per worker on spawn platforms).
    workers:
        Number of worker processes requested; clamped per batch to the
        number of work units.
    answerer_kind / answerer_kwargs:
        Worker-side answering algorithm: ``"local-cache"``, ``"r2r"`` or
        ``"one-by-one"``, with constructor kwargs (the graph argument is
        injected).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` when
        the platform offers it, else the platform default (shared-memory
        CSR attach, or pickle fallback).
    shared_graph:
        When true (default) the engine freezes the graph before sharing it
        with workers: fork pools inherit the CSR snapshot copy-on-write,
        and spawn/forkserver pools receive only a
        :class:`~repro.network.csr.CSRHandle` (shm segment names +
        metadata) and attach the parent's buffers zero-copy.  The engine
        owns the segment and unlinks it on shutdown, worker crash and
        breaker fallback alike.  Set false to force the legacy
        pickled-graph payload (mutable dict-graph search paths).
    unit_timeout:
        Optional per-attempt cap in seconds on the *additional* wait for a
        worker result; on expiry the attempt counts as failed and the
        retry policy decides what happens next.
    min_queries_per_worker:
        Fewer total queries than ``workers * min_queries_per_worker``
        shrinks the effective worker count so tiny batches are not
        dominated by dispatch overhead.
    retry_policy:
        Bounded-attempt :class:`~repro.resilience.RetryPolicy` applied to
        failed units (default: one retry with a short backoff).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injecting
        deterministic failures for chaos testing.
    breaker:
        :class:`~repro.resilience.CircuitBreaker` guarding the pool path;
        a default breaker (3 failures, 30 s cooldown) is created when not
        given.
    watchdog:
        Optional :class:`~repro.resilience.WorkerWatchdog`.  When set, the
        engine slices its future waits into ``watchdog.poll_interval``
        steps, drains worker heartbeats between slices, and treats a dead
        or hung worker like a broken pool (teardown + requeue through the
        retry ladder) — with the watchdog bounding the rebuilds and
        tripping ``breaker`` on a restart storm.
    """

    def __init__(
        self,
        graph,
        workers: int = 2,
        answerer_kind: str = "local-cache",
        answerer_kwargs: Optional[dict] = None,
        start_method: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        min_queries_per_worker: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        breaker: Optional[CircuitBreaker] = None,
        shared_graph: bool = True,
        watchdog: Optional[WorkerWatchdog] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if unit_timeout is not None and unit_timeout < 0:
            raise ConfigurationError("unit_timeout must be non-negative")
        if start_method is not None and start_method not in mp.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} not available on this platform"
            )
        self.graph = graph
        self.workers = workers
        self.answerer_kind = answerer_kind
        self.answerer_kwargs = dict(answerer_kwargs or {})
        self.start_method = start_method
        self.unit_timeout = unit_timeout
        self.min_queries_per_worker = max(1, min_queries_per_worker)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.shared_graph = shared_graph
        self.watchdog = watchdog
        self._hb_queue = None
        self._shared: Optional[SharedCSR] = None
        self._shared_version: Optional[int] = None
        # Validates the kind eagerly and doubles as the in-process fallback
        # answerer and the fork-inherited template.
        self._answerer = worker.build_answerer(
            graph, answerer_kind, self.answerer_kwargs
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_version: Optional[int] = None
        #: Construction attempts so far; doubles as the pool generation id.
        self._pool_builds = 0
        self._pool_generation = -1
        # Distinct from the initial generation so a failure before the
        # first successful build still counts against the breaker.
        self._failed_generation = -2
        #: Unit index -> the known answers of its pairs, for one execute().
        self._unit_known: Dict[int, KnownAnswers] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_answerer(cls, answerer, workers: int = 2, **options) -> "ParallelBatchEngine":
        """Build an engine that replicates an existing answerer per worker."""
        kind, kwargs = answerer.spec()
        return cls(
            answerer.graph,
            workers=workers,
            answerer_kind=kind,
            answerer_kwargs=kwargs,
            **options,
        )

    def __enter__(self) -> "ParallelBatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        try:
            # Never wait on the GC path: a blocking shutdown during
            # interpreter teardown can deadlock against dying worker
            # machinery.  Explicit close()/context-manager exits still wait.
            self._shutdown(wait=False)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._shutdown(wait=True)

    def warm(self) -> bool:
        """Pre-build the worker pool before the first batch arrives.

        A streaming service calls this while the line is still quiet so
        the first busy window does not pay pool construction (and, on
        spawn platforms, the shared-memory segment publication) on its
        own latency.  Returns ``True`` when a pool is up afterwards;
        construction failures are absorbed into the circuit breaker
        exactly like a dispatch-time failure, so a broken pool degrades
        to in-process execution rather than failing the caller.
        """
        if self.workers <= 1:
            return False
        if self._pool is not None:
            return True
        # Fault accounting during warm goes to a throwaway report: there
        # is no active batch to charge the fault against yet.
        self._active_report = ExecutionReport(
            requested_workers=self.workers,
            workers=self.workers,
            start_method=self._resolved_start_method(),
        )
        try:
            self._ensure_pool(self.workers)
            return True
        except Exception as exc:
            self._note_pool_failure()
            logger.warning(
                "pool warm-up failed (%s: %s); first batch will retry",
                type(exc).__name__,
                exc,
            )
            return False
        finally:
            self._active_report = None

    def _shutdown(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0
            self._pool_version = None
        if self._hb_queue is not None:
            try:
                self._hb_queue.close()
                self._hb_queue.cancel_join_thread()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self._hb_queue = None
        if self.watchdog is not None:
            self.watchdog.forget()
        self._release_shared()

    def _release_shared(self) -> None:
        """Close + unlink the engine-owned shm segment (idempotent).

        Runs on every pool teardown: clean shutdown, pool rebuild after a
        version bump, worker-crash recovery (:meth:`_note_pool_failure`)
        and the circuit breaker's serial fallback all come through
        :meth:`_shutdown`, so the segment can never outlive its pool.
        """
        shared, self._shared = self._shared, None
        self._shared_version = None
        if shared is not None:
            try:
                shared.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def _ensure_shared_segment(self, version) -> Optional[SharedCSR]:
        """The engine-owned shared CSR segment for the current graph version."""
        if self._shared is not None and self._shared_version != version:
            self._release_shared()
        if self._shared is None:
            freeze = getattr(self.graph, "freeze", None)
            if freeze is None:
                return None
            try:
                self._shared = share_csr(freeze())
            except Exception:
                # Out of shm space (or an exotic graph): fall back to the
                # pickled-graph payload rather than failing dispatch.
                return None
            self._shared_version = version
        return self._shared

    # ------------------------------------------------------------------
    def execute(
        self,
        work: Union[Decomposition, QuerySet],
        method: Optional[str] = None,
        deadline: Optional[Deadline] = None,
        known: Optional[KnownAnswers] = None,
    ) -> ParallelOutcome:
        """Answer ``work`` across the pool and merge deterministically.

        ``work`` is a :class:`Decomposition` (clusters become work units)
        or a plain :class:`QuerySet` (each query becomes a singleton
        unit).  Returns the merged answer plus the execution report.
        Queries with out-of-range endpoints are dead-lettered up front;
        everything else is answered or dead-lettered with a reason —
        never silently dropped.

        ``deadline`` caps the whole batch: units are shipped with the
        remaining budget (workers re-arm it locally and the search
        kernels cut themselves off cooperatively), an already-expired
        budget dead-letters a unit without dispatching it, and a
        :class:`~repro.exceptions.DeadlineExceededError` is never
        retried — the unit's queries are dead-lettered with reason
        ``deadline-exceeded``.

        ``known`` (Local Cache only) maps ``(source, target)`` pairs to
        exact answers already searched, which misses on those pairs reuse.
        Each unit is shipped the entries of its own pairs, so the pool
        answers exactly as the serial ``answer(..., known=known)`` does.
        """
        decomposition = self._as_decomposition(work)
        dead_letters: List[DeadLetterRecord] = []
        units: List[Tuple[int, QueryCluster]] = []
        for index, cluster in enumerate(decomposition.clusters):
            cluster = self._validated_cluster(index, cluster, dead_letters)
            if len(cluster):
                units.append((index, cluster))
        self._unit_known = {}
        if known:
            for index, cluster in units:
                mine = {
                    pair: known[pair]
                    for pair in {(q.source, q.target) for q in cluster.queries}
                    if pair in known
                }
                if mine:
                    self._unit_known[index] = mine
        num_valid = sum(len(cluster) for _, cluster in units)
        estimates = {index: self._estimate(cluster) for index, cluster in units}
        # Longest-estimated-first, index-stable for determinism.
        order = sorted(units, key=lambda item: (-estimates[item[0]], item[0]))
        effective = self._effective_workers(len(units), num_valid)
        breaker_tripped = False
        if effective > 1 and self.breaker.state == OPEN:
            # Repeated pool failures: stay serial until the cooldown allows
            # a half-open probe.
            breaker_tripped = True
            effective = 1
        report = ExecutionReport(
            requested_workers=self.workers,
            workers=effective,
            start_method=(
                "in-process" if effective <= 1 else self._resolved_start_method()
            ),
            breaker_tripped=breaker_tripped,
        )
        report.dead_letters.extend(dead_letters)
        merged = BatchAnswer(
            method=method or f"parallel[{self.answerer_kind}]",
            decompose_seconds=decomposition.elapsed_seconds,
            num_clusters=len(decomposition.clusters),
            workers=effective,
        )
        registry = get_registry()
        if registry.enabled:
            # Fleet accumulator: every unit (worker or in-process) runs
            # under its own registry and its snapshot is folded in here.
            report.metrics = MetricsSnapshot()
        wall0 = time.perf_counter()
        with registry.span(
            "dispatch", units=len(units), workers=effective, mode=report.start_method
        ):
            if effective <= 1:
                results = self._run_in_process(order, estimates, report, deadline)
            else:
                results = self._run_pool(order, estimates, report, effective, deadline)
        report.wall_seconds = time.perf_counter() - wall0
        with registry.span("merge", units=len(results)):
            for index in sorted(results):
                unit_answer = results[index]
                merged.answers.extend(unit_answer.answers)
                merged.visited += unit_answer.visited
                merged.cache_hits += unit_answer.cache_hits
                merged.cache_misses += unit_answer.cache_misses
                merged.cache_bytes += unit_answer.cache_bytes
                merged.singleton_queries += unit_answer.singleton_queries
                if unit_answer.max_cluster_cache_bytes > merged.max_cluster_cache_bytes:
                    merged.max_cluster_cache_bytes = unit_answer.max_cluster_cache_bytes
        if report.metrics is not None:
            report.metrics.merge(self._dispatch_metrics(report))
            # Fold the fleet totals into the caller's registry so one
            # snapshot covers the run regardless of the worker count.
            registry.merge_snapshot(report.metrics)
        merged.answer_seconds = report.wall_seconds
        merged.execution_report = report
        return ParallelOutcome(answer=merged, report=report)

    def _dispatch_metrics(self, report: ExecutionReport) -> MetricsSnapshot:
        """Engine-level metrics for one execute() round as a snapshot."""
        engine_reg = MetricsRegistry()
        engine_reg.counter("parallel.units").add(len(report.units))
        engine_reg.counter("parallel.fallbacks").add(report.fallbacks)
        engine_reg.gauge("parallel.workers").track_max(report.workers)
        engine_reg.counter("resilience.retries_total").add(report.retries)
        engine_reg.counter("resilience.quarantined_units_total").add(
            report.quarantined_units
        )
        engine_reg.counter("resilience.dead_letters_total").add(
            len(report.dead_letters)
        )
        engine_reg.counter("resilience.faults_injected_total").add(
            report.faults_injected
        )
        for kind, count in report.faults_by_kind.items():
            engine_reg.counter(f"resilience.faults.{kind}").add(count)
        engine_reg.counter("resilience.unit_timeouts_total").add(report.unit_timeouts)
        if report.breaker_tripped:
            engine_reg.counter("resilience.breaker_short_circuits_total").add(1)
        engine_reg.gauge("resilience.breaker_state").set(self.breaker.state_value)
        busy = engine_reg.histogram("parallel.unit_seconds", TIME_BUCKETS)
        wait = engine_reg.histogram("parallel.queue_wait_seconds", TIME_BUCKETS)
        for u in report.units:
            busy.observe(u.busy_seconds)
            wait.observe(max(0.0, u.queue_wait_seconds))
        return engine_reg.snapshot()

    # ------------------------------------------------------------------
    def _as_decomposition(self, work) -> Decomposition:
        if isinstance(work, Decomposition):
            return work
        if isinstance(work, QuerySet):
            clusters = [QueryCluster(queries=[q]) for q in work]
            return Decomposition(clusters, "singletons", 0.0)
        raise ConfigurationError(
            f"cannot execute {type(work).__name__}; pass a Decomposition or QuerySet"
        )

    def _validated_cluster(
        self,
        index: int,
        cluster: QueryCluster,
        dead_letters: List[DeadLetterRecord],
    ) -> QueryCluster:
        """Strip queries with out-of-range endpoints into dead letters.

        A malformed query must never reach a search heap (where it would
        surface as a bare ``KeyError``/``IndexError`` and kill the whole
        unit); it is recorded and the rest of the cluster proceeds.
        """
        n = self.graph.num_vertices
        if all(q.source < n and q.target < n for q in cluster.queries):
            return cluster
        valid = []
        for q in cluster.queries:
            if q.source < n and q.target < n:
                valid.append(q)
            else:
                dead_letters.append(
                    DeadLetterRecord(
                        source=q.source,
                        target=q.target,
                        reason=REASON_INVALID_QUERY,
                        stage=STAGE_VALIDATION,
                        detail=f"vertex id out of range (|V| = {n})",
                        unit=index,
                    )
                )
        return QueryCluster(
            queries=valid,
            kind=cluster.kind,
            direction=cluster.direction,
            covered_cells=cluster.covered_cells,
            center=cluster.center,
            radius=cluster.radius,
        )

    def _estimate(self, cluster: QueryCluster) -> float:
        graph = self.graph
        return sum(graph.euclidean(q.source, q.target) for q in cluster.queries)

    def _effective_workers(self, num_units: int, num_queries: int) -> int:
        by_queries = num_queries // self.min_queries_per_worker
        return max(1, min(self.workers, num_units, by_queries))

    def _resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        methods = mp.get_all_start_methods()
        return "fork" if "fork" in methods else mp.get_start_method()

    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        version = getattr(self.graph, "version", None)
        if self._pool is not None and (
            self._pool_workers != workers or self._pool_version != version
        ):
            # A weight epoch (graph.version bump) invalidates the snapshot
            # the workers hold; re-fork so they see the new weights.
            self.close()
        if self._pool is None:
            build = self._pool_builds
            self._pool_builds += 1
            self._pool_generation = build
            if self.fault_plan is not None and self.fault_plan.pool_fault(build):
                self._note_fault("break")
                raise FaultInjectionError(
                    f"injected pool construction failure (build {build})"
                )
            method = self._resolved_start_method()
            context = mp.get_context(method)
            if self.watchdog is not None and self._hb_queue is None:
                # One queue per pool lifetime; workers inherit it at fork
                # or receive it through the spawn initialiser (mp queues
                # pickle over the Process-args channel).
                self._hb_queue = context.Queue()
            if method == "fork":
                if self.shared_graph:
                    freeze = getattr(self.graph, "freeze", None)
                    if freeze is not None:
                        # Freeze before forking so every child inherits the
                        # CSR snapshot copy-on-write and runs the kernels.
                        freeze()
                # Workers fork lazily at first submit; the state installed
                # here (and re-asserted before each submit round) is what
                # they inherit.
                worker.set_parent_state(self.graph, self._answerer)
                worker.set_heartbeat(self._hb_queue)
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            else:
                payload: Optional[bytes] = None
                initializer = worker.init_spawn
                if self.shared_graph:
                    shared = self._ensure_shared_segment(version)
                    if shared is not None:
                        payload = pickle.dumps(
                            (shared.handle, self.answerer_kind, self.answerer_kwargs)
                        )
                        initializer = worker.init_spawn_shared
                if payload is None:
                    payload = pickle.dumps(
                        (self.graph, self.answerer_kind, self.answerer_kwargs)
                    )
                record_spawn_payload(len(payload))
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=initializer,
                    initargs=(payload, self._hb_queue),
                )
            self._pool_workers = workers
            self._pool_version = version
        return self._pool

    def _run_in_process(
        self,
        order: List[Tuple[int, QueryCluster]],
        estimates: Dict[int, float],
        report: ExecutionReport,
        deadline: Optional[Deadline] = None,
    ) -> Dict[int, BatchAnswer]:
        results: Dict[int, BatchAnswer] = {}
        with use_deadline(deadline):
            for index, cluster in order:
                if deadline is not None and deadline.expired():
                    self._dead_letter_deadline(report, cluster, index, attempts=1)
                    continue
                results[index] = self._guarded_local(
                    index, cluster, estimates[index], report,
                    fallback=False, attempts=1, quarantined=False,
                )
        return results

    def _answer_locally(
        self,
        index: int,
        cluster: QueryCluster,
        estimate: float,
        report: ExecutionReport,
        fallback: bool,
        attempts: int = 1,
        quarantined: bool = False,
    ) -> BatchAnswer:
        t0 = time.perf_counter()
        known = self._unit_known.get(index)
        if report.metrics is not None:
            # Mirror the worker path: run the unit under its own registry
            # and fold the snapshot into the fleet accumulator, so serial
            # and parallel runs report identical counter totals.
            unit_registry = MetricsRegistry()
            with use_registry(unit_registry):
                answer = worker.answer_one(self._answerer, cluster, known)
            snapshot = unit_registry.snapshot()
            for span in snapshot.spans:
                span["attrs"].update({"pid": 0, "unit": index})
            report.metrics.merge(snapshot)
        else:
            answer = worker.answer_one(self._answerer, cluster, known)
        busy = time.perf_counter() - t0
        report.units.append(
            UnitTrace(
                index=index,
                queries=len(cluster),
                estimate=estimate,
                worker=0,
                queue_wait_seconds=0.0,
                busy_seconds=busy,
                fallback=fallback,
                attempts=attempts,
                quarantined=quarantined,
            )
        )
        return answer

    # -- degradation ladder ---------------------------------------------
    def _guarded_local(
        self,
        index: int,
        cluster: QueryCluster,
        estimate: float,
        report: ExecutionReport,
        fallback: bool,
        attempts: int,
        quarantined: bool,
    ) -> BatchAnswer:
        """In-process answer with the ladder's last rung as a safety net."""
        try:
            return self._answer_locally(
                index, cluster, estimate, report,
                fallback=fallback, attempts=attempts, quarantined=quarantined,
            )
        except DeadlineExceededError:
            # Out of budget mid-unit: dead-letter, never degrade (the
            # ladder's rungs would just re-raise at their first check).
            self._dead_letter_deadline(report, cluster, index, attempts)
            return BatchAnswer(method=f"deadline[{self.answerer_kind}]")
        except Exception as exc:
            logger.warning(
                "unit %d failed in-process (%s: %s); degrading to singleton "
                "Dijkstra queries",
                index,
                type(exc).__name__,
                exc,
            )
            return self._answer_singletons(index, cluster, estimate, report, attempts)

    def _quarantine_unit(
        self,
        index: int,
        cluster: QueryCluster,
        estimate: float,
        report: ExecutionReport,
        attempts: int,
        cause: BaseException,
    ) -> BatchAnswer:
        """Retries exhausted: walk the degradation ladder.

        Rung 1 re-answers the whole unit in-process with the engine's own
        (cache) answerer; rung 2 splits the unit into singleton queries;
        rung 3 answers each singleton with plain Dijkstra.  Queries that
        still fail (no path, structural errors) become dead letters.
        """
        logger.warning(
            "unit %d (%d queries) quarantined after %d attempts (%s: %s)",
            index,
            len(cluster),
            attempts,
            type(cause).__name__,
            cause,
        )
        return self._guarded_local(
            index, cluster, estimate, report,
            fallback=True, attempts=attempts, quarantined=True,
        )

    def _answer_singletons(
        self,
        index: int,
        cluster: QueryCluster,
        estimate: float,
        report: ExecutionReport,
        attempts: int,
    ) -> BatchAnswer:
        """The ladder's bottom: each query alone, plain Dijkstra at the end."""
        from ..search.dijkstra import dijkstra

        t0 = time.perf_counter()
        answer = BatchAnswer(method=f"quarantine[{self.answerer_kind}]")
        for q in cluster.queries:
            try:
                singleton = QueryCluster(queries=[q], kind=cluster.kind)
                unit_answer = worker.answer_one(self._answerer, singleton)
                answer.answers.extend(unit_answer.answers)
                answer.visited += unit_answer.visited
                answer.singleton_queries += 1
                continue
            except DeadlineExceededError:
                self._dead_letter_query(
                    report, q, index, attempts,
                    reason=REASON_DEADLINE_EXCEEDED,
                    error="DeadlineExceededError",
                    detail="budget spent walking the degradation ladder",
                )
                record_deadline(expired=1, preempted=1)
                continue
            except Exception:
                pass  # fall through to the most conservative answerer
            try:
                result = dijkstra(self.graph, q.source, q.target)
                if not math.isfinite(result.distance):
                    self._dead_letter_query(
                        report, q, index, attempts,
                        reason=REASON_NO_PATH,
                        error="NoPathError",
                        detail=f"no path from {q.source} to {q.target}",
                    )
                    continue
                answer.answers.append((q, result))
                answer.visited += result.visited
                answer.singleton_queries += 1
            except DeadlineExceededError:
                self._dead_letter_query(
                    report, q, index, attempts,
                    reason=REASON_DEADLINE_EXCEEDED,
                    error="DeadlineExceededError",
                    detail="budget spent walking the degradation ladder",
                )
                record_deadline(expired=1, preempted=1)
            except Exception as exc:
                self._dead_letter_query(
                    report, q, index, attempts,
                    reason=REASON_QUARANTINE_FAILED,
                    error=type(exc).__name__,
                    detail=str(exc),
                )
        busy = time.perf_counter() - t0
        report.units.append(
            UnitTrace(
                index=index,
                queries=len(cluster),
                estimate=estimate,
                worker=0,
                queue_wait_seconds=0.0,
                busy_seconds=busy,
                fallback=True,
                attempts=attempts,
                quarantined=True,
            )
        )
        return answer

    def _dead_letter_query(
        self,
        report: ExecutionReport,
        query,
        unit: int,
        attempts: int,
        reason: str,
        error: str,
        detail: str,
    ) -> None:
        report.dead_letters.append(
            DeadLetterRecord(
                source=query.source,
                target=query.target,
                reason=reason,
                stage=STAGE_QUARANTINE,
                error=error,
                detail=detail,
                unit=unit,
                attempts=attempts,
            )
        )

    def _dead_letter_deadline(
        self,
        report: ExecutionReport,
        cluster: QueryCluster,
        unit: int,
        attempts: int,
        detail: str = "batch deadline expired",
    ) -> None:
        """Dead-letter every query of a unit whose time budget is spent."""
        for q in cluster.queries:
            report.dead_letters.append(
                DeadLetterRecord(
                    source=q.source,
                    target=q.target,
                    reason=REASON_DEADLINE_EXCEEDED,
                    stage=STAGE_DISPATCH,
                    error="DeadlineExceededError",
                    detail=detail,
                    unit=unit,
                    attempts=attempts,
                )
            )
        record_deadline(expired=len(cluster.queries))

    # -- pool path -------------------------------------------------------
    def _note_fault(self, kind: str) -> None:
        self._active_report.faults_by_kind[kind] = (
            self._active_report.faults_by_kind.get(kind, 0) + 1
        )

    def _note_pool_failure(self) -> None:
        """Account one pool-level failure against the breaker (per generation)."""
        if self._pool_generation != self._failed_generation:
            self._failed_generation = self._pool_generation
            self.breaker.record_failure()
        self._shutdown(wait=False)

    def _submit_unit(
        self, workers: int, index: int, cluster: QueryCluster, attempt: int,
        collect: bool, budget: Optional[float] = None,
    ) -> _Pending:
        directive = None
        if self.fault_plan is not None:
            directive = self.fault_plan.unit_fault(index, attempt)
            if directive is not None:
                self._note_fault(directive.kind)
        pool = self._ensure_pool(workers)
        if self._resolved_start_method() == "fork":
            # Re-assert in case another engine replaced the globals since
            # this pool was created (workers fork on first submit).
            worker.set_parent_state(self.graph, self._answerer)
            worker.set_heartbeat(self._hb_queue)
        submitted = time.time()
        future = pool.submit(
            worker.answer_unit,
            (index, cluster, collect, directive, budget, self._unit_known.get(index)),
        )
        return _Pending(index, cluster, attempt, submitted, future)

    def _try_submit(
        self,
        workers: int,
        index: int,
        cluster: QueryCluster,
        attempt: int,
        collect: bool,
        estimates: Dict[int, float],
        report: ExecutionReport,
        results: Dict[int, BatchAnswer],
        deadline: Optional[Deadline] = None,
    ) -> Optional[_Pending]:
        """Submit a unit, retrying pool construction; local answer as last resort.

        Returns the pending submission, or ``None`` when the unit was
        answered in-process (breaker denied the pool, or construction kept
        failing past the retry budget) or dead-lettered (budget already
        spent before dispatch).
        """
        while True:
            budget: Optional[float] = None
            if deadline is not None:
                budget = deadline.remaining()
                if budget <= 0:
                    self._dead_letter_deadline(report, cluster, index, attempt)
                    return None
            if not self.breaker.allow():
                # Open breaker (or half-open with the probe slot taken):
                # stay off the pool for this unit.  The caller's
                # use_deadline scope covers this local work.
                results[index] = self._guarded_local(
                    index, cluster, estimates[index], report,
                    fallback=True, attempts=attempt, quarantined=False,
                )
                return None
            try:
                return self._submit_unit(
                    workers, index, cluster, attempt, collect, budget
                )
            except Exception as exc:
                self._note_pool_failure()
                logger.warning(
                    "pool unavailable for unit %d attempt %d (%s: %s)",
                    index,
                    attempt,
                    type(exc).__name__,
                    exc,
                )
                if self.retry_policy.allows_retry(attempt):
                    self._sleep_backoff(attempt, index)
                    attempt += 1
                    continue
                results[index] = self._quarantine_unit(
                    index, cluster, estimates[index], report, attempt, exc
                )
                return None

    def _sleep_backoff(self, attempt: int, key: int) -> None:
        delay = self.retry_policy.delay_seconds(attempt, key=key)
        if delay > 0:
            time.sleep(delay)

    def _await_result(self, item: _Pending):
        """Wait for one unit result, interleaving watchdog scans.

        Without a watchdog this is a plain ``future.result(unit_timeout)``.
        With one, the wait is sliced into ``poll_interval`` steps; between
        slices the heartbeat queue is drained and the pool's processes are
        scanned, so a worker that died or wedged on a *different* unit is
        caught while this one is still waiting.  An unhealthy scan raises
        :class:`~repro.resilience.WorkerHungError` (treated by the caller
        like a broken pool).
        """
        wd = self.watchdog
        if wd is None:
            return item.future.result(timeout=self.unit_timeout)
        waited = 0.0
        while True:
            step = wd.poll_interval
            if self.unit_timeout is not None:
                step = min(step, self.unit_timeout - waited)
                if step <= 0:
                    raise FuturesTimeoutError()
            try:
                return item.future.result(timeout=step)
            except FuturesTimeoutError:
                waited += step
                wd.drain(self._hb_queue)
                processes = getattr(self._pool, "_processes", None) or {}
                wd_report = wd.scan(processes)
                if not wd_report.healthy:
                    record_watchdog(
                        dead=len(wd_report.dead), hung=len(wd_report.hung)
                    )
                    raise WorkerHungError(wd_report.describe()) from None

    def _note_watchdog_restart(self) -> None:
        """Pool teardown was watchdog-triggered: spend one restart.

        Within budget the normal rebuild-on-next-submit path applies; past
        it the watchdog declared a storm and the breaker is tripped
        outright so every remaining unit goes serial in-process.
        """
        record_watchdog(restarts=1)
        if self.watchdog is not None and not self.watchdog.note_restart():
            logger.warning(
                "watchdog restart storm (%d restarts); tripping breaker",
                self.watchdog.restarts,
            )
            self.breaker.trip()

    def _run_pool(
        self,
        order: List[Tuple[int, QueryCluster]],
        estimates: Dict[int, float],
        report: ExecutionReport,
        workers: int,
        deadline: Optional[Deadline] = None,
    ) -> Dict[int, BatchAnswer]:
        self._active_report = report
        registry = get_registry()
        collect = report.metrics is not None
        results: Dict[int, BatchAnswer] = {}
        pending: deque = deque()
        pool_ok = True
        with use_deadline(deadline):
            for index, cluster in order:
                item = self._try_submit(
                    workers, index, cluster, 1, collect, estimates, report,
                    results, deadline,
                )
                if item is not None:
                    pending.append(item)
            while pending:
                item = pending.popleft()
                try:
                    with registry.span(
                        "unit_attempt", unit=item.index, attempt=item.attempt
                    ):
                        r_index, answer, pid, started, busy, snapshot = (
                            self._await_result(item)
                        )
                except (Exception, FuturesCancelledError) as exc:
                    if isinstance(exc, FuturesTimeoutError):
                        exc = UnitTimeoutError(
                            item.index, item.attempt, self.unit_timeout or 0.0
                        )
                        report.unit_timeouts += 1
                    if not item.future.cancelled() and not item.future.done():
                        item.future.cancel()
                    if isinstance(exc, DeadlineExceededError):
                        # The worker cut itself off: the unit's budget is
                        # gone, so a retry could only expire again.
                        record_deadline(preempted=1)
                        self._dead_letter_deadline(
                            report, item.cluster, item.index, item.attempt,
                            detail=str(exc),
                        )
                        continue
                    if isinstance(exc, WorkerHungError):
                        pool_ok = False
                        self._note_pool_failure()
                        self._note_watchdog_restart()
                    elif _is_pool_fatal(exc):
                        pool_ok = False
                        self._note_pool_failure()
                    logger.warning(
                        "unit %d (%d queries) attempt %d failed in worker (%s: %s)",
                        item.index,
                        len(item.cluster),
                        item.attempt,
                        type(exc).__name__,
                        exc,
                    )
                    if self.retry_policy.allows_retry(item.attempt):
                        self._sleep_backoff(item.attempt, item.index)
                        retry = self._try_submit(
                            workers, item.index, item.cluster, item.attempt + 1,
                            collect, estimates, report, results, deadline,
                        )
                        if retry is not None:
                            pending.append(retry)
                    else:
                        results[item.index] = self._quarantine_unit(
                            item.index, item.cluster, estimates[item.index],
                            report, item.attempt, exc,
                        )
                    continue
                results[r_index] = answer
                if snapshot is not None and report.metrics is not None:
                    report.metrics.merge(snapshot)
                report.units.append(
                    UnitTrace(
                        index=r_index,
                        queries=len(item.cluster),
                        estimate=estimates[r_index],
                        worker=pid,
                        queue_wait_seconds=max(0.0, started - item.submitted),
                        busy_seconds=busy,
                        attempts=item.attempt,
                    )
                )
        if pool_ok and self._pool is not None:
            self.breaker.record_success()
        self._active_report = None
        return results

    #: The report the current _run_pool round accounts faults against.
    _active_report: Optional[ExecutionReport] = None


def _is_pool_fatal(exc: BaseException) -> bool:
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(exc, (BrokenProcessPool, FuturesCancelledError))
