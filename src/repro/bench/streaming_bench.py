"""Streaming-service throughput/latency measurement body.

Runs the same real-clock Poisson stream through
:class:`~repro.streaming.StreamingQueryService` once per worker count and
reports sustained qps, p50/p99 end-to-end latency and window/shed
accounting.  Used by both ``benchmarks/bench_streaming.py`` (which
appends provenance-stamped JSONL rows) and the ``streaming`` harness
suite (which records schema'd JSON per label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .knobs import env_float, env_int, env_int_list, env_str
from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric


@dataclass
class StreamingOutcome:
    rows: List[dict]
    metrics: Dict[str, Metric]
    rendered: str


def bench_one(graph, arrivals, workers: int, *, scale: str, rate: float,
              duration: float, window_ms: float, max_batch: int,
              **backend_options) -> dict:
    from ..streaming import StreamingQueryService

    with StreamingQueryService(
        graph,
        window_seconds=window_ms / 1000.0,
        max_batch=max_batch,
        workers=workers,
        clock="real",
        **backend_options,
    ) as service:
        report = service.run(arrivals)
    assert report.unaccounted_queries == 0, (
        f"workers={workers}: {report.unaccounted_queries} queries unaccounted"
    )
    assert report.dropped_queries == 0, (
        f"workers={workers}: {report.dropped_queries} queries dropped"
    )
    return {
        "workers": workers,
        "scale": scale,
        "rate": rate,
        "duration": duration,
        "window_ms": window_ms,
        "max_batch": max_batch,
        "arrivals": report.total_arrivals,
        "answered": report.answered_queries,
        "qps": round(report.qps, 2),
        "p50_latency_ms": round(report.p50_latency * 1000, 2),
        "p99_latency_ms": round(report.p99_latency * 1000, 2),
        "windows": len(report.micro_batch_windows),
        "windows_by_trigger": report.windows_by_trigger,
        "cache_hits": report.stream_cache_hits,
        "shed_degraded": report.shed_degraded,
        "wall_seconds": round(report.wall_seconds, 3),
    }


def run_streaming(
    scale: str = "small",
    rate: float = 400.0,
    duration: float = 5.0,
    workers: Sequence[int] = (0, 2, 4),
    window_ms: float = 250.0,
    max_batch: int = 64,
    progress: bool = False,
) -> StreamingOutcome:
    from ..network.generators import beijing_like
    from ..queries.arrivals import PoissonArrivals
    from ..queries.workload import WorkloadGenerator

    lines = [f"network   : beijing_like({scale!r})"]
    graph = beijing_like(scale, seed=0)
    lines.append(
        f"size      : {graph.num_vertices} vertices, {graph.num_edges} edges"
    )
    workload = WorkloadGenerator(graph, seed=7)
    arrivals = PoissonArrivals(workload, rate=rate, seed=7).duration(duration)
    lines.append(
        f"stream    : {len(arrivals)} queries, {rate:g} qps nominal, "
        f"{duration:g}s, window {window_ms:g}ms / max {max_batch}"
    )
    lines.append("")
    header = (f"{'workers':>7} | {'qps':>8} | {'p50(ms)':>8} | "
              f"{'p99(ms)':>8} | {'windows':>7} | {'hits':>6} | {'shed':>5}")
    lines.append(header)
    lines.append("-" * len(header))
    if progress:
        for line in lines:
            print(line, flush=True)

    rows = []
    metrics: Dict[str, Metric] = {
        "arrivals": Metric(float(len(arrivals)), kind="count",
                           direction="higher", tolerance_pct=0.0),
    }
    for w in workers:
        row = bench_one(graph, arrivals, w, scale=scale, rate=rate,
                        duration=duration, window_ms=window_ms,
                        max_batch=max_batch)
        rows.append(row)
        line = (f"{row['workers']:>7} | {row['qps']:>8.1f} | "
                f"{row['p50_latency_ms']:>8.1f} | {row['p99_latency_ms']:>8.1f} | "
                f"{row['windows']:>7} | {row['cache_hits']:>6} | "
                f"{row['shed_degraded']:>5}")
        lines.append(line)
        if progress:
            print(line, flush=True)
        # Real-clock measurements: generous tolerances on latency/qps,
        # info-only on the timing-dependent window/cache counters.
        metrics[f"qps[w={w}]"] = Metric(row["qps"], unit="qps", kind="ratio",
                                        direction="higher", tolerance_pct=35.0)
        metrics[f"p50_ms[w={w}]"] = Metric(row["p50_latency_ms"], unit="ms",
                                           kind="time", tolerance_pct=45.0)
        metrics[f"p99_ms[w={w}]"] = Metric(row["p99_latency_ms"], unit="ms",
                                           kind="time", tolerance_pct=45.0)
        metrics[f"answered[w={w}]"] = Metric(float(row["answered"]),
                                             kind="count", direction="higher",
                                             tolerance_pct=0.0)
        metrics[f"windows[w={w}]"] = Metric(float(row["windows"]), kind="info")
        metrics[f"cache_hits[w={w}]"] = Metric(float(row["cache_hits"]),
                                               kind="info")
        metrics[f"shed_degraded[w={w}]"] = Metric(float(row["shed_degraded"]),
                                                  kind="info")
    return StreamingOutcome(rows=rows, metrics=metrics,
                            rendered="\n".join(lines))


def run_numpy_row(
    scale: str = "tiny",
    rate: float = 200.0,
    duration: float = 5.0,
    window_ms: float = 250.0,
    max_batch: int = 64,
    progress: bool = False,
) -> StreamingOutcome:
    """Paired serial-engine runs: default kernels vs forced numpy batching.

    The ``np`` row pins ``REPRO_KERNEL=np`` with floor thresholds (so the
    vectorized sweeps dispatch even on the small streaming network) and
    answers cluster misses through :class:`LocalCacheAnswerer`'s batched
    one-to-many mode.  Measured honestly: on ``tiny`` the per-query A*
    frontier is a handful of vertices, so vectorization overhead can
    offset the batching win — the point of the row is to record the
    actual p99 delta, not to presume one.
    """
    import os

    from ..core.local_cache import LocalCacheAnswerer
    from ..network.generators import beijing_like
    from ..queries.arrivals import PoissonArrivals
    from ..queries.workload import WorkloadGenerator
    from ..search import np_kernels

    lines = [f"numpy row : beijing_like({scale!r}), {rate:g} qps, serial engine"]
    graph = beijing_like(scale, seed=0)
    workload = WorkloadGenerator(graph, seed=7)
    arrivals = PoissonArrivals(workload, rate=rate, seed=7).duration(duration)

    knob_sets = {
        "baseline": {},
        "np": {
            np_kernels.BACKEND_KNOB: "np",
            np_kernels.AUTO_MIN_KNOB: "1",
            np_kernels.BATCH_MIN_KNOB: "2",
        },
    }
    rows: List[dict] = []
    metrics: Dict[str, Metric] = {}
    for kernel, env in knob_sets.items():
        if kernel == "np" and not np_kernels.np_available():
            lines.append("np        : numpy unavailable, row skipped")
            continue
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            answerer = LocalCacheAnswerer(
                graph,
                cache_bytes=512 * 1024,
                order="longest",
                eviction="lru",
                batch_one_to_many=(kernel == "np"),
            )
            row = bench_one(
                graph, arrivals, 0, scale=scale, rate=rate,
                duration=duration, window_ms=window_ms, max_batch=max_batch,
                answerer=answerer,
            )
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        row["kernel"] = kernel
        rows.append(row)
        line = (f"{kernel:>9} : p50 {row['p50_latency_ms']:.1f} ms, "
                f"p99 {row['p99_latency_ms']:.1f} ms, {row['qps']:.1f} qps")
        lines.append(line)
        if progress:
            print(line, flush=True)
        metrics[f"p99_ms[kernel={kernel}]"] = Metric(
            row["p99_latency_ms"], unit="ms", kind="time", tolerance_pct=45.0)
        metrics[f"p50_ms[kernel={kernel}]"] = Metric(
            row["p50_latency_ms"], unit="ms", kind="time", tolerance_pct=45.0)
    if len(rows) == 2:
        base, np_row = rows[0]["p99_latency_ms"], rows[1]["p99_latency_ms"]
        delta_pct = 100.0 * (base - np_row) / base if base > 0 else 0.0
        lines.append(f"p99 delta : {delta_pct:+.1f}% (positive = np faster)")
        metrics["np_p99_reduction_pct"] = Metric(delta_pct, kind="info")
    return StreamingOutcome(rows=rows, metrics=metrics,
                            rendered="\n".join(lines))


def streaming_knobs() -> dict:
    """The streaming benchmark's effective knob set (validated)."""
    return {
        "scale": env_str("REPRO_STREAM_SCALE", "small"),
        "rate": env_float("REPRO_STREAM_RATE", 400.0),
        "duration": env_float("REPRO_STREAM_DURATION", 5.0),
        "workers": env_int_list("REPRO_STREAM_WORKERS", (0, 2, 4)),
        "window_ms": env_float("REPRO_STREAM_WINDOW_MS", 250.0),
        "max_batch": env_int("REPRO_STREAM_MAX_BATCH", 64),
    }


def numpy_row_knobs() -> dict:
    """Knobs for the paired baseline-vs-numpy kernel rows (validated)."""
    return {
        "scale": env_str("REPRO_STREAM_NP_SCALE", "tiny"),
        "rate": env_float("REPRO_STREAM_NP_RATE", 200.0),
        "duration": env_float("REPRO_STREAM_DURATION", 5.0),
        "window_ms": env_float("REPRO_STREAM_WINDOW_MS", 250.0),
        "max_batch": env_int("REPRO_STREAM_MAX_BATCH", 64),
    }


@suite("streaming", "streaming service qps + latency at several worker counts",
       default_scale="small")
def streaming_suite(ctx: SuiteContext) -> SuiteRun:
    knobs = streaming_knobs()
    if ctx.scale is not None:
        knobs["scale"] = ctx.scale
    outcome = run_streaming(**knobs)
    np_outcome = run_numpy_row(**numpy_row_knobs())
    metrics = {**outcome.metrics, **np_outcome.metrics}
    rendered = outcome.rendered + "\n\n" + np_outcome.rendered
    return SuiteRun(metrics=metrics, rendered=rendered)
