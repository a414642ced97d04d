"""Per-layer numbers, all taken from outside the program.

Three sources: public report fields (``StreamReport``, ``WindowReport``,
``BatchAnswer``, ``ExecutionReport``), the counters of a ``MetricsRegistry``
installed for one traced replay, and direct timed calls on the workload's
own inputs.  Where a layer has no report field, the benchmark times the
layer's public boundary with a wrapper for the length of the traced replay
(``timed_calls``): that is the benchmark's span around the call.

The budget of a traced replay has the run itself as its root: the
outermost layer's self time is the run wall minus the time observed at the
boundaries below it, so the self times always sum to the wall.  What can
fail to close is the level below: ``bench.budget_residual_pct`` is the time
observed at those boundaries from outside that the program's own report
fields do not account for, as a share of the wall.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List

from repro import (
    AdmissionController,
    CustomizableContractionHierarchy,
    GlobalCacheAnswerer,
    MetricsRegistry,
    MicroBatcher,
    SearchSpaceDecomposer,
    a_star,
    use_registry,
)
from repro.baselines import split_log_and_stream
from repro.core.cache import VersionedPathCache
from repro.search.np_kernels import np_available, np_batch_dijkstra

from .catalogue import OFFLINE_METHODS, PER_LAYER
from .phases import (
    Paced,
    Tally,
    paced_phase,
    percentile_ms,
    quiesce,
    replay,
    setup_offline,
    setup_serve,
    timed,
)
from .workloads import Workload, make_graph

Metrics = Dict[str, float]

#: StreamingQueryService's defaults, repeated for the stand-alone probes.
WINDOW_S = 0.25
MAX_BATCH = 64
STREAM_CACHE_BYTES = 2 * 1024 * 1024
PROBE_QUERIES = 500
NP_BATCH = 64


@contextmanager
def timed_calls(owner, names, sink: Dict[str, float]) -> Iterator[None]:
    """Time every call of ``owner.<name>`` into ``sink[name]`` (seconds) and
    count the calls that raised into ``sink[name + ".errors"]``."""
    originals = {name: getattr(owner, name) for name in names}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                sink[name + ".errors"] += 1
                raise
            finally:
                sink[name] += time.perf_counter() - start

        return timed

    for name, fn in originals.items():
        sink.setdefault(name, 0.0)
        sink.setdefault(name + ".errors", 0)
        setattr(owner, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)


# ----------------------------------------------------------------------
# Traced capacity replay
# ----------------------------------------------------------------------
def traced_serve(wl: Workload, tally: Tally) -> Metrics:
    quiesce()
    service, _ = setup_serve(wl)
    timers: Dict[str, float] = {"advance_to": 0.0}
    registry = MetricsRegistry()
    gc.collect()
    with ExitStack() as stack:
        stack.enter_context(service)
        stack.enter_context(use_registry(registry))
        stack.enter_context(timed_calls(service.backend, ["process_window"], timers))
        stack.enter_context(
            timed_calls(CustomizableContractionHierarchy, ["query", "ensure_current"], timers)
        )
        if service.timeline is not None:
            stack.enter_context(timed_calls(service.timeline, ["advance_to"], timers))
        report, run = timed(lambda: service.run(wl.capacity_stream))
    wall = run.raw
    tally.account(report)
    backend = [w.report for w in report.windows if w.report is not None]
    answers = [r.answer for r in backend if r.answer is not None]
    decompose = sum(a.decompose_seconds for a in answers)
    answer = sum(a.answer_seconds for a in answers)
    local_hits = sum(a.cache_hits for a in answers)
    local_lookups = local_hits + sum(a.cache_misses for a in answers)
    backend_inside = sum(r.wall_seconds for r in backend)
    backend_outside = timers["process_window"]
    index_busy = timers["query"] + timers["ensure_current"]
    events = sum(w.timeline_events for w in report.windows)
    lookups = report.stream_cache_hits + report.stream_cache_misses
    counters = registry.snapshot().counters
    cache = service.stream_cache
    return {
        "traced_scaled_s": run.scaled,
        "streaming.windows": len(report.windows),
        "core.decompose_s": decompose,
        "core.answer_s": answer,
        "core.local_cache_hit_ratio": local_hits / local_lookups if local_lookups else 0.0,
        "service.backend_wall_s": backend_inside,
        "service.self_s": backend_inside - decompose - answer,
        "service.retries": sum(r.retries for r in backend),
        "service.degraded_windows": sum(1 for r in backend if r.degraded),
        "index.busy_s": index_busy,
        "index.customize_runs": report.index_customizations,
        "index.served_windows": report.index_served_windows,
        "index.fallback_queries": timers["query.errors"],
        "network.timeline_events": events,
        "network.timeline_apply_ms": timers["advance_to"] / events * 1000.0 if events else 0.0,
        "search.visited_total": sum(r.visited for _, r in report.answers),
        "search.heap_pops": counters.get("search.heap_pops", 0),
        "streaming.self_s": wall - backend_outside - index_busy - timers["advance_to"],
        "streaming.cache_hit_share": report.stream_cache_hits / lookups if lookups else 0.0,
        "streaming.cache_invalidations": report.stream_cache_invalidations,
        "streaming.cache_evictions": cache.evictions if cache is not None else 0,
        "bench.budget_residual_pct": 100.0 * (backend_outside - backend_inside) / wall,
    }


def _unreported_seconds(wl: Workload, processor) -> Dict[str, float]:
    """What ``BatchProcessor.process`` does on every call that no
    ``BatchAnswer`` field reports, timed on its own through the same public
    calls: the |GC| protocol before each local-cache method (a Global Cache
    built on the 20 % log), and the grid index ``slc-s`` builds inside a
    fresh ``SearchSpaceDecomposer``."""
    start = time.perf_counter()
    log, _ = split_log_and_stream(wl.cache_queries, processor.log_fraction)
    GlobalCacheAnswerer(processor.graph).build(log)
    sizing = time.perf_counter() - start
    start = time.perf_counter()
    SearchSpaceDecomposer(processor.graph, delta=processor.delta)
    return {
        "core.cache_sizing_s": sizing,
        "core.decomposer_build_s": time.perf_counter() - start,
    }


def traced_offline(wl: Workload, tally: Tally, full: bool = True) -> Metrics:
    """One pass under a registry; ``full`` adds what need not run twice: the
    per-query A* baseline and the two-worker pool, both outside the budget."""
    registry = MetricsRegistry()
    with use_registry(registry):
        traced = replay(wl, tally)
    processor, _ = setup_offline(wl)
    out: Metrics = {
        "traced_scaled_s": traced.scaled_s,
        "search.heap_pops": registry.snapshot().counters.get("search.heap_pops", 0),
    }
    out.update(_unreported_seconds(wl, processor))
    reported = 0.0
    visited = 0
    for method in OFFLINE_METHODS:
        _, answer = traced.result[method]
        out[f"core.decompose_s.{method}"] = answer.decompose_seconds
        out[f"core.answer_s.{method}"] = answer.answer_seconds
        out[f"core.clusters.{method}"] = answer.num_clusters
        out[f"core.hit_ratio.{method}"] = answer.hit_ratio
        reported += answer.total_seconds
        visited += answer.visited
    out["search.visited_total"] = visited
    # slc-s and zlc each size their caches once; only slc-s builds the grid.
    probed = 2 * out["core.cache_sizing_s"] + out["core.decomposer_build_s"]
    out["bench.budget_residual_pct"] = 100.0 * (traced.wall_s - reported - probed) / traced.wall_s
    if full:
        for band, queries in (("cache", wl.cache_queries), ("r2r", wl.r2r_queries)):
            answer, baseline = timed(lambda: processor.process(queries, "astar"))
            tally.account_batch(queries, answer)
            for method in OFFLINE_METHODS:
                if (method == "r2r-s") == (band == "r2r"):
                    out[f"core.speedup_vs_astar.{method}"] = (
                        baseline.scaled / traced.chunks[method].scaled
                    )
        out.update(_parallel(wl, tally))
    return out


def _parallel(wl: Workload, tally: Tally) -> Metrics:
    """The multiprocess pool on the same slc-s batch: counts and times only;
    with the generator in-process on two cores its wall-clock scaling is
    scheduler noise, so nothing here is gated."""
    processor, _ = setup_offline(wl, workers=2)
    registry = MetricsRegistry()
    with use_registry(registry):
        answer = processor.process(wl.cache_queries, "slc-s")
    tally.account_batch(wl.cache_queries, answer)
    report = answer.execution_report
    counters = registry.snapshot().counters
    return {
        "parallel.w2_wall_s": report.wall_seconds,
        "parallel.w2_units": len(report.units),
        "parallel.w2_fallback_units": report.fallbacks,
        "parallel.w2_payload_bytes": counters.get("parallel.spawn_payload_bytes", 0),
    }


# ----------------------------------------------------------------------
# Direct timed calls on the workload's own inputs
# ----------------------------------------------------------------------
def setup_detail(wl: Workload) -> Metrics:
    start = time.perf_counter()
    graph = make_graph(wl.spec)
    build = time.perf_counter() - start
    start = time.perf_counter()
    csr = graph.freeze()
    freeze = time.perf_counter() - start
    out: Metrics = {
        "network.build_s": build,
        "network.freeze_s": freeze,
        "network.csr_bytes": csr.nbytes,
    }
    sample = wl.sample_queries(PROBE_QUERIES)
    gc.collect()
    start = time.perf_counter()
    visited = sum(a_star(graph, q.source, q.target).visited for q in sample)
    out["search.astar_us"] = (time.perf_counter() - start) / len(sample) * 1e6
    out["search.visited_per_query"] = visited / len(sample)
    if np_available():
        pairs = [(q.source, q.target) for q in sample][:NP_BATCH]
        np_batch_dijkstra(csr, pairs)  # builds the cached numpy view
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            np_batch_dijkstra(csr, pairs)
            walls.append(time.perf_counter() - start)
        out["search.np_batch_ms"] = statistics.median(walls) * 1000.0
    if wl.spec.index == "cch":
        index = CustomizableContractionHierarchy(graph)
        out["index.order_build_s"] = index.order_seconds
        out["index.customize_ms"] = index.customize_seconds * 1000.0
        gc.collect()
        start = time.perf_counter()
        for q in sample:
            index.query(q.source, q.target)
        out["index.query_us"] = (time.perf_counter() - start) / len(sample) * 1e6
    if wl.spec.kind == "serve":
        out.update(_streaming_probes(wl, graph, sample))
    return out


def _streaming_probes(wl: Workload, graph, sample) -> Metrics:
    stream = wl.capacity_stream
    admission = AdmissionController()
    start = time.perf_counter()
    for tq in stream:
        admission.admit(tq)
        admission.pop()
    admit = time.perf_counter() - start
    batcher = MicroBatcher(WINDOW_S, MAX_BATCH)
    start = time.perf_counter()
    for tq in stream:
        batcher.offer(tq)
    offer = time.perf_counter() - start
    cache = VersionedPathCache(graph, STREAM_CACHE_BYTES, eviction="lru")
    for q in sample:
        cache.insert(a_star(graph, q.source, q.target).path)
    start = time.perf_counter()
    for tq in stream:
        cache.lookup(tq.query.source, tq.query.target)
    probe = time.perf_counter() - start
    return {
        "streaming.admit_us": admit / len(stream) * 1e6,
        "streaming.offer_us": offer / len(stream) * 1e6,
        "streaming.cache_probe_us": probe / len(stream) * 1e6,
    }


def window_stats(paced: Paced) -> Metrics:
    """Where a paced query's latency went: waiting for its window's cut, or
    in dispatch after it.  Windows consume the sorted arrivals in order, so
    (with nothing shed) each window's queries are the next ``queries`` stamps."""
    report = paced.report
    out: Metrics = {
        "bench.generator_lag_ms_p99": paced.lag_ms_p99,
        "bench.slo_miss_share": paced.late_or_lost / paced.arrivals,
        "streaming.latency_high_p99_ms": paced.pooled(0.99),
    }
    if report is None:
        return out
    events = sorted(paced.stream)
    waits: List[float] = []
    at = 0
    for window in report.windows:
        waits.extend(window.cut_at - tq.arrival for tq in events[at : at + window.queries])
        at += window.queries
    dispatch = [w.completed_at - w.cut_at for w in report.windows]
    triggers = report.windows_by_trigger
    out.update({
        "streaming.window_wait_ms_p50": percentile_ms(waits, 0.50),
        "streaming.dispatch_ms_p50": percentile_ms(dispatch, 0.50),
        "streaming.dispatch_ms_p95": percentile_ms(dispatch, 0.95),
        "streaming.windows_by_size": triggers.get("size", 0),
        "streaming.windows_by_duration": triggers.get("duration", 0),
        "streaming.mean_window_size": report.mean_window_size,
        "streaming.shed_degraded": report.shed_degraded,
        "streaming.backpressure_stalls": report.backpressure_stalls,
    })
    return out


# ----------------------------------------------------------------------
def per_layer_run(wl: Workload, seconds: float, tally: Tally) -> Metrics:
    """``--trace 1``: every per-layer metric, 0 where the workload does not
    exercise the layer.  Untraced and traced replays alternate for 60 % of
    the time (so drift cancels in the overhead ratio), then one paced run at
    the high rate for 30 %."""
    exact = {m.name for m in PER_LAYER if m.exact}
    out: Metrics = {m.name: 0.0 for m in PER_LAYER}
    out.update(setup_detail(wl))
    replay(wl, tally)  # warm-up, discarded
    untraced: List[float] = []
    traced: List[Metrics] = []
    start = time.perf_counter()
    while True:
        untraced.append(replay(wl, tally).scaled_s)
        if wl.spec.kind == "offline":
            traced.append(traced_offline(wl, tally, full=not traced))
        else:
            traced.append(traced_serve(wl, tally))
        elapsed = time.perf_counter() - start
        if len(traced) >= 2 and elapsed + elapsed / len(traced) > 0.6 * seconds:
            break
    for name in traced[0]:
        values = [layer[name] for layer in traced if name in layer]
        if name in exact and len(set(values)) > 1:
            tally.wrong(f"{name} differs between replays of one seed: {sorted(set(values))}")
        out[name] = values[0] if name in exact else statistics.median(values)
    out["bench.trace_overhead_pct"] = 100.0 * (
        out.pop("traced_scaled_s") / statistics.median(untraced) - 1.0
    )
    out.update(window_stats(paced_phase(wl, wl.spec.high_qps, 0.3 * seconds, tally)))
    return out
