"""Runtime observability: metrics registry, span tracing, aggregation.

The live pipeline (search → cache → decomposition → parallel dispatch →
service windows) reports what it does through one process-local
:class:`MetricsRegistry`, installed with :func:`use_registry` /
:func:`set_registry`.  By default the :data:`NULL_REGISTRY` is active and
every instrumentation point costs one attribute check, so the library is
observability-free unless somebody asks.

Quickstart::

    from repro.obs import MetricsRegistry, use_registry

    reg = MetricsRegistry()
    with use_registry(reg):
        BatchProcessor(graph).process(batch, "slc-s")
    snap = reg.snapshot()
    print(snap.counters["search.heap_pops"], snap.counters["cache.hits"])

The helpers below (:func:`record_search`, :func:`record_cache`,
:func:`record_decomposition`) are the single place where the hot layers'
flush-at-end counts turn into named metrics, so the metric naming scheme
lives here and nowhere else.
"""

from __future__ import annotations

from .export import (
    load_metrics_json,
    render_metrics_summary,
    render_stage_table,
    snapshot_to_json,
    to_prometheus_text,
    write_metrics_json,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_REGISTRY,
    NullRegistry,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    get_registry,
    set_registry,
    use_registry,
)
from .spans import SpanRecord, SpanTracer, read_jsonl, summarize_spans

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "NullRegistry",
    "SIZE_BUCKETS",
    "SpanRecord",
    "SpanTracer",
    "TIME_BUCKETS",
    "get_registry",
    "load_metrics_json",
    "read_jsonl",
    "record_admission_sealed",
    "record_cache",
    "record_customize",
    "record_dead_letters",
    "record_deadline",
    "record_decomposition",
    "record_fault",
    "record_freeze",
    "record_heuristic",
    "record_journal",
    "record_landmark_build",
    "record_np_search",
    "record_quarantine",
    "record_retry",
    "record_search",
    "record_sizing_reuse",
    "record_shm_attach",
    "record_shm_share",
    "record_spawn_payload",
    "record_stream_cache",
    "record_stream_shed",
    "record_stream_window",
    "record_vector_reused",
    "record_watchdog",
    "set_breaker_state",
    "set_stream_queue_depth",
    "render_metrics_summary",
    "render_stage_table",
    "set_registry",
    "snapshot_to_json",
    "summarize_spans",
    "to_prometheus_text",
    "use_registry",
    "write_metrics_json",
]


def record_search(settled: int, relaxations: int, heap_pops: int) -> None:
    """Flush one search run's locally-counted work into the registry.

    Searches count with plain local integers inside their loops and call
    this once at the end, so the per-event overhead stays a local
    increment regardless of the registry installed.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("search.runs").add(1)
        reg.counter("search.settled").add(settled)
        reg.counter("search.relaxations").add(relaxations)
        reg.counter("search.heap_pops").add(heap_pops)


def record_heuristic(landmarks: bool) -> None:
    """Count one A* call under the bound it searched with.

    ``search.heuristic.alt`` counts calls that got a snapshot's landmark
    (ALT) bound, ``search.heuristic.euclid`` those on the scaled Euclidean
    bound, so the two sum to the A* calls of a run.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter(
            "search.heuristic.alt" if landmarks else "search.heuristic.euclid"
        ).add(1)


def record_vector_reused() -> None:
    """Count one ALT heuristic vector served from its snapshot's memo.

    A memo hit is a lookup, not a search: it adds nothing to
    ``search.runs`` or ``search.heap_pops``.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("search.heuristic.vector_reused").add(1)


def record_sizing_reuse(count: int) -> None:
    """Count Local Cache misses answered from the |GC| sizing's searches.

    Each is still a cache miss (``cache.misses``) but no search: nothing
    reaches ``search.runs`` or ``search.heap_pops``.
    """
    reg = get_registry()
    if reg.enabled and count:
        reg.counter("core.sizing_answers_reused").add(count)


def record_landmark_build(seconds: float) -> None:
    """Count one per-snapshot landmark build and its wall time.

    The build's sweeps are not queries: they add nothing to
    ``search.visited_total`` or ``search.heap_pops``.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("search.landmark_builds").add(1)
        reg.histogram("search.landmark_build_s", TIME_BUCKETS).observe(max(0.0, seconds))


def record_np_search(
    kind: str, buckets: int, frontier: int, relaxations: int, rows: int = 1
) -> None:
    """Flush one vectorized (numpy) sweep's shape into the registry.

    ``kind`` names the kernel (``batch-dijkstra``, the joint sweep);
    ``rows`` counts how many point-to-point searches the sweep served at
    once; ``frontier`` sums frontier sizes across inner rounds (the
    expansion analogue of heap pops) and ``relaxations`` counts strict
    tentative-distance improvements.  These ride alongside the unified
    ``search.*`` counters the sweep also flushes via :func:`record_search`.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("csr.np_sweeps").add(1)
        reg.counter(f"csr.np_kind.{kind}").add(1)
        reg.counter("csr.np_rows").add(rows)
        reg.counter("csr.np_buckets").add(buckets)
        reg.counter("csr.np_frontier").add(frontier)
        reg.counter("csr.np_relaxations").add(relaxations)


def record_cache(
    hits: int,
    misses: int,
    evictions: int = 0,
    rejected_inserts: int = 0,
    subpath_hits: int = 0,
    bytes_built: int = 0,
) -> None:
    """Flush one cache's (delta) counters into the registry.

    :class:`~repro.core.cache.PathCache` keeps its own plain attribute
    counters; answerers publish either the full counts of a fresh cache or
    the before/after delta of a reused one.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("cache.hits").add(hits)
        reg.counter("cache.misses").add(misses)
        reg.counter("cache.evictions").add(evictions)
        reg.counter("cache.rejected_inserts").add(rejected_inserts)
        reg.counter("cache.subpath_hits").add(subpath_hits)
        reg.counter("cache.bytes_built").add(bytes_built)


def record_freeze(num_vertices: int, num_edges: int, seconds: float) -> None:
    """Count one CSR freeze (cache-miss snapshot build) and its size/time."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("csr.freezes").add(1)
        reg.counter("csr.frozen_vertices").add(num_vertices)
        reg.counter("csr.frozen_edges").add(num_edges)
        reg.histogram("csr.freeze_seconds", TIME_BUCKETS).observe(max(0.0, seconds))


def record_customize(
    edges: int, triangles: int, seconds: float, order_rebuilt: bool = False
) -> None:
    """Count one CCH customization pass (and any forced order rebuild).

    ``edges``/``triangles`` are the chordal supergraph's sizes — the work
    the pass performed; ``order_rebuilt`` marks the rare topology-change
    path where the metric-independent order had to be recomputed first.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("index.customize_runs").add(1)
        reg.counter("index.customize_edges").add(edges)
        reg.counter("index.customize_triangles").add(triangles)
        reg.histogram("index.customize_seconds", TIME_BUCKETS).observe(
            max(0.0, seconds)
        )
        if order_rebuilt:
            reg.counter("index.order_builds").add(1)


def record_shm_share(nbytes: int) -> None:
    """Count one shared-memory CSR segment published by the parent."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("csr.shm_segments").add(1)
        reg.counter("csr.shm_bytes").add(nbytes)


def record_shm_attach(nbytes: int) -> None:
    """Count one zero-copy worker attachment to a shared CSR segment."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("csr.shm_attaches").add(1)
        reg.counter("csr.shm_attached_bytes").add(nbytes)


def record_spawn_payload(nbytes: int) -> None:
    """Size of one spawn-pool initializer payload (handle or pickled graph)."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("parallel.spawn_payload_bytes").add(nbytes)


def record_retry(count: int = 1) -> None:
    """Count re-dispatches of failed work units (``resilience.retries_total``)."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("resilience.retries_total").add(count)


def record_fault(kind: str) -> None:
    """Count one injected fault, total and per kind."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("resilience.faults_injected_total").add(1)
        reg.counter(f"resilience.faults.{kind}").add(1)


def record_quarantine(count: int = 1) -> None:
    """Count work units that exhausted retries and were quarantined."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("resilience.quarantined_units_total").add(count)


def record_deadline(expired: int = 0, degraded: int = 0, preempted: int = 0) -> None:
    """Count deadline-budget outcomes.

    ``expired`` — queries dead-lettered because their budget was spent;
    ``degraded`` — queries re-answered by plain Dijkstra with what budget
    remained after the batch path was cut off; ``preempted`` — searches
    cancelled mid-run by the cooperative kernel check.
    """
    reg = get_registry()
    if not reg.enabled:
        return
    if expired:
        reg.counter("resilience.deadline_expired_total").add(expired)
    if degraded:
        reg.counter("resilience.deadline_degraded_total").add(degraded)
    if preempted:
        reg.counter("resilience.deadline_preempted_total").add(preempted)


def record_watchdog(dead: int = 0, hung: int = 0, restarts: int = 0) -> None:
    """Count watchdog detections and the pool restarts they triggered."""
    reg = get_registry()
    if not reg.enabled:
        return
    if dead:
        reg.counter("resilience.watchdog_dead_workers_total").add(dead)
    if hung:
        reg.counter("resilience.watchdog_hung_workers_total").add(hung)
    if restarts:
        reg.counter("resilience.watchdog_restarts_total").add(restarts)


def record_journal(appended: int = 0, replayed: int = 0) -> None:
    """Count arrivals-journal writes and recovery replays."""
    reg = get_registry()
    if not reg.enabled:
        return
    if appended:
        reg.counter("streaming.journal_appends_total").add(appended)
    if replayed:
        reg.counter("streaming.journal_replayed_total").add(replayed)


def record_dead_letters(count: int) -> None:
    """Count queries routed to the dead-letter record."""
    reg = get_registry()
    if reg.enabled and count:
        reg.counter("resilience.dead_letters_total").add(count)


def set_breaker_state(state_value: int) -> None:
    """Publish the circuit-breaker state gauge (0 closed, 1 half-open, 2 open)."""
    reg = get_registry()
    if reg.enabled:
        reg.gauge("resilience.breaker_state").set(state_value)


def record_decomposition(decomposition) -> None:
    """Publish cluster counts/sizes and timing of one decomposition run."""
    reg = get_registry()
    if not reg.enabled:
        return
    sizes = decomposition.cluster_sizes
    reg.counter("decompose.runs").add(1)
    reg.counter("cluster.count").add(len(sizes))
    reg.counter("cluster.queries").add(sum(sizes))
    reg.counter("cluster.singletons").add(sum(1 for s in sizes if s == 1))
    size_hist = reg.histogram("cluster.size", SIZE_BUCKETS)
    for size in sizes:
        size_hist.observe(size)
    reg.histogram("decompose.seconds", TIME_BUCKETS).observe(
        max(0.0, decomposition.elapsed_seconds)
    )


def record_stream_window(size: int, trigger: str, span_seconds: float) -> None:
    """Count one assembled micro-batch window and its shape.

    ``trigger`` is why the window was cut (``duration``, ``size`` or
    ``flush``); ``span_seconds`` is how long it was open.
    """
    reg = get_registry()
    if reg.enabled:
        reg.counter("streaming.windows").add(1)
        reg.counter(f"streaming.trigger.{trigger}").add(1)
        reg.histogram("streaming.window_size", SIZE_BUCKETS).observe(size)
        reg.histogram("streaming.window_span_seconds", TIME_BUCKETS).observe(
            max(0.0, span_seconds)
        )


def record_admission_sealed(cache: int, index: int) -> None:
    """Count the arrivals one admission record sealed without a window.

    ``cache`` were exact stream-cache hits, ``index`` were answered by the
    customizable index on arrival.  Called once per record, not per query.
    """
    reg = get_registry()
    if not reg.enabled:
        return
    if cache:
        reg.counter("streaming.admission_sealed.cache").add(cache)
    if index:
        reg.counter("streaming.admission_sealed.index").add(index)


def record_stream_shed(degraded: int = 0, dropped: int = 0, stalls: int = 0) -> None:
    """Count load-shedding outcomes at the streaming admission boundary."""
    reg = get_registry()
    if not reg.enabled:
        return
    if degraded:
        reg.counter("streaming.shed_degraded_total").add(degraded)
    if dropped:
        reg.counter("streaming.shed_dropped_total").add(dropped)
    if stalls:
        reg.counter("streaming.backpressure_stalls_total").add(stalls)


def record_stream_cache(hits: int, misses: int, invalidations: int = 0) -> None:
    """Count the cross-window path cache's (delta) hit/miss/flush activity."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("streaming.cache_hits").add(hits)
    reg.counter("streaming.cache_misses").add(misses)
    if invalidations:
        reg.counter("streaming.cache_invalidations").add(invalidations)


def set_stream_queue_depth(depth: int) -> None:
    """Publish the admission queue depth (current and high-water)."""
    reg = get_registry()
    if reg.enabled:
        gauge = reg.gauge("streaming.queue_depth")
        gauge.set(depth)
        reg.gauge("streaming.queue_depth_max").track_max(depth)
