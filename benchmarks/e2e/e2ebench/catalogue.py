"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root is the contract the driver reads; this
module is the same list with the two things the contract has no key for:
which end-to-end metric a layer metric should move (``moves``) and whether
a count must repeat exactly between two runs of one seed (``exact``).
``tests/test_bench.py`` pins the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

OFFLINE_METHODS: Tuple[str, ...] = ("slc-s", "zlc", "r2r-s")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end metric(s) this one should move, and where ("" = validity only).
    moves: str = ""
    #: Regression bound as a share of the parent's median (end-to-end only).
    bound: float = 0.0
    #: A pure function of the seed: two runs must agree digit for digit.
    exact: bool = False


#: Bounds are at least three times the widest ten-seed spread (interquartile
#: range over median) of the final configuration on any workload: set-up 3 %,
#: capacity 6.4 %, latencies 7.7 %, RSS 0.6 %.  The latencies sit at the
#: contract's cap of 0.25: on a worse hour of the sandbox host the CPU-heavy
#: workloads spread up to 19 %.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("capacity_qps", "1/s", "higher", bound=0.20),
    Metric("latency_low_p50_ms", "ms", "lower", bound=0.25),
    Metric("latency_high_p50_ms", "ms", "lower", bound=0.25),
    Metric("latency_high_p95_ms", "ms", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
]


def _per_layer() -> List[Metric]:
    m: List[Metric] = [
        Metric("network.build_s", "s", "lower", "setup_s; all"),
        Metric("network.freeze_s", "s", "lower", "setup_s; all"),
        Metric("network.csr_bytes", "B", "lower", "peak_rss_mb; all", exact=True),
        Metric("network.timeline_apply_ms", "ms", "lower",
               "capacity_qps; serve_cch_epochs"),
        Metric("network.timeline_events", "count", "lower",
               "capacity_qps; serve_cch_epochs", exact=True),
        Metric("index.order_build_s", "s", "lower", "setup_s; serve_cch_epochs"),
        Metric("index.customize_ms", "ms", "lower",
               "setup_s, capacity_qps, latency_high_p95_ms; serve_cch_epochs"),
        Metric("index.customize_runs", "count", "lower",
               "capacity_qps; serve_cch_epochs", exact=True),
        Metric("index.busy_s", "s", "lower", "capacity_qps; serve_cch_epochs"),
        Metric("index.query_us", "us", "lower", "capacity_qps; serve_cch_epochs"),
        Metric("index.served_windows", "count", "higher",
               "capacity_qps; serve_cch_epochs", exact=True),
        Metric("index.fallback_queries", "count", "lower",
               "capacity_qps; serve_cch_epochs", exact=True),
        Metric("search.astar_us", "us", "lower",
               "capacity_qps; serve_kernel, offline_batch"),
        Metric("search.visited_per_query", "count", "lower",
               "capacity_qps; serve_kernel, offline_batch", exact=True),
        Metric("search.np_batch_ms", "ms", "lower",
               "capacity_qps; serve_kernel, offline_batch"),
        Metric("search.visited_total", "count", "lower",
               "capacity_qps; serve_kernel, offline_batch", exact=True),
        Metric("search.heap_pops", "count", "lower",
               "capacity_qps; serve_kernel, offline_batch", exact=True),
    ]
    for method in OFFLINE_METHODS:
        where = "capacity_qps; offline_batch"
        m += [
            Metric(f"core.decompose_s.{method}", "s", "lower", where),
            Metric(f"core.answer_s.{method}", "s", "lower", where),
            Metric(f"core.clusters.{method}", "count", "lower", where, exact=True),
            Metric(f"core.hit_ratio.{method}", "ratio", "higher", where, exact=True),
            Metric(f"core.speedup_vs_astar.{method}", "ratio", "higher", where),
        ]
    m += [
        Metric("core.cache_sizing_s", "s", "lower", "capacity_qps; offline_batch"),
        Metric("core.decomposer_build_s", "s", "lower", "capacity_qps; offline_batch"),
        Metric("core.decompose_s", "s", "lower",
               "capacity_qps, latency_high_p95_ms; serve_kernel"),
        Metric("core.answer_s", "s", "lower",
               "capacity_qps, latency_high_p95_ms; serve_kernel"),
        Metric("core.local_cache_hit_ratio", "ratio", "higher",
               "capacity_qps; serve_kernel", exact=True),
        Metric("service.backend_wall_s", "s", "lower", "capacity_qps; serve_kernel"),
        Metric("service.self_s", "s", "lower", "capacity_qps; serve_kernel"),
        Metric("service.retries", "count", "lower", "capacity_qps; all serve",
               exact=True),
        Metric("service.degraded_windows", "count", "lower",
               "capacity_qps; all serve", exact=True),
        Metric("streaming.self_s", "s", "lower", "capacity_qps; serve_cache_hot"),
        Metric("streaming.admit_us", "us", "lower", "capacity_qps; serve_cache_hot"),
        Metric("streaming.offer_us", "us", "lower", "capacity_qps; serve_cache_hot"),
        Metric("streaming.cache_probe_us", "us", "lower",
               "capacity_qps; serve_cache_hot"),
        Metric("streaming.window_wait_ms_p50", "ms", "lower",
               "latency_low_p50_ms, latency_high_p50_ms; all, dominant on "
               "serve_cache_hot"),
        Metric("streaming.dispatch_ms_p50", "ms", "lower",
               "latency_high_p50_ms; serve_kernel, serve_cch_epochs"),
        Metric("streaming.dispatch_ms_p95", "ms", "lower",
               "latency_high_p95_ms; serve_kernel, serve_cch_epochs"),
        Metric("streaming.latency_high_p99_ms", "ms", "lower",
               "latency_high_p95_ms; all (too noisy to bound)"),
        Metric("streaming.windows_by_size", "count", "lower",
               "latency_high_p50_ms; all serve"),
        Metric("streaming.windows_by_duration", "count", "lower",
               "latency_low_p50_ms; all serve"),
        Metric("streaming.mean_window_size", "count", "higher",
               "capacity_qps; all serve"),
        Metric("streaming.windows", "count", "lower", "capacity_qps; all serve",
               exact=True),
        Metric("streaming.cache_hit_share", "ratio", "higher",
               "capacity_qps; serve_cache_hot", exact=True),
        Metric("streaming.cache_invalidations", "count", "lower",
               "capacity_qps; serve_cch_epochs", exact=True),
        Metric("streaming.cache_evictions", "count", "lower",
               "capacity_qps; serve_cache_hot", exact=True),
        Metric("streaming.shed_degraded", "count", "lower",
               "latency_high_p95_ms; all serve"),
        Metric("streaming.backpressure_stalls", "count", "lower",
               "latency_high_p95_ms; all serve"),
        Metric("parallel.w2_wall_s", "s", "lower", "none gated; offline_batch"),
        Metric("parallel.w2_units", "count", "lower", "none gated; offline_batch",
               exact=True),
        Metric("parallel.w2_fallback_units", "count", "lower",
               "none gated; offline_batch"),
        Metric("parallel.w2_payload_bytes", "B", "lower",
               "none gated; offline_batch"),
        Metric("bench.slo_miss_share", "ratio", "lower"),
        Metric("bench.generator_lag_ms_p99", "ms", "lower"),
        Metric("bench.trace_overhead_pct", "%", "lower"),
        Metric("bench.budget_residual_pct", "%", "lower"),
    ]
    return m


PER_LAYER: List[Metric] = _per_layer()


def as_contract(metrics: List[Metric], with_bound: bool) -> List[Dict[str, object]]:
    """The metric list in the key layout ``BENCHMARK.json`` requires."""
    out: List[Dict[str, object]] = []
    for metric in metrics:
        row: Dict[str, object] = {
            "name": metric.name, "unit": metric.unit, "better": metric.better,
        }
        if with_bound:
            row["bound"] = metric.bound
        out.append(row)
    return out
