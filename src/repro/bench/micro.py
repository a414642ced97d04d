"""Micro and smoke suites: fast, mostly-deterministic primitive metrics.

``microbench`` tracks per-operation costs of the core primitives (like
``benchmarks/test_microbench.py``), pairing each wall-time sample with
the deterministic work counter behind it (visited vertices, cluster
counts, cache hits) so a branch compare distinguishes "the machine was
busy" from "the algorithm does more work now".

``smoke`` is the CI-sized subset: seconds, not minutes, on the ``tiny``
network — the suite the advisory CI compare runs on every push.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Tuple
from unittest import mock

from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric

TIME_TOL = 40.0


def best_of(fn: Callable[[], object], rounds: int = 3) -> Tuple[float, object]:
    """(best wall seconds, last result) over ``rounds`` runs."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _ms(seconds: float, tolerance_pct: float = TIME_TOL) -> Metric:
    return Metric(seconds * 1e3, unit="ms", kind="time",
                  tolerance_pct=tolerance_pct)


def _count(value: float, direction: str = "lower") -> Metric:
    return Metric(float(value), kind="count", direction=direction,
                  tolerance_pct=0.0)


def _collect(env, *, batch: int, rounds: int) -> Dict[str, Metric]:
    from ..core.cache import PathCache
    from ..core.coclustering import CoClusteringDecomposer
    from ..network.grid import GridIndex
    from ..search.astar import a_star
    from ..search.bidirectional import bidirectional_dijkstra
    from ..search.dijkstra import dijkstra

    metrics: Dict[str, Metric] = {}
    graph = env.graph
    q = env.fresh_workload(801).batch(1, *env.r2r_band)[0]
    s, t = q.source, q.target

    seconds, result = best_of(lambda: dijkstra(graph, s, t), rounds)
    metrics["dijkstra.ms"] = _ms(seconds)
    metrics["dijkstra.visited"] = _count(result.visited)

    frozen = graph.copy()
    t0 = time.perf_counter()
    frozen.freeze()
    metrics["freeze.ms"] = _ms(time.perf_counter() - t0)
    seconds, frozen_result = best_of(lambda: dijkstra(frozen, s, t), rounds)
    metrics["dijkstra_frozen.ms"] = _ms(seconds)
    metrics["dijkstra_frozen.visited"] = _count(frozen_result.visited)
    assert frozen_result.distance == result.distance

    seconds, result = best_of(lambda: a_star(graph, s, t), rounds)
    metrics["astar.ms"] = _ms(seconds)
    metrics["astar.visited"] = _count(result.visited)

    seconds, result = best_of(lambda: bidirectional_dijkstra(graph, s, t), rounds)
    metrics["bidirectional.ms"] = _ms(seconds)
    metrics["bidirectional.visited"] = _count(result.visited)

    queries = env.fresh_workload(804).batch(batch)
    decomposer = CoClusteringDecomposer(graph, eta=0.05)
    seconds, decomposition = best_of(lambda: decomposer.decompose(queries), rounds)
    metrics["cocluster.ms"] = _ms(seconds)
    metrics["cocluster.clusters"] = _count(len(decomposition))

    cache = PathCache(graph)
    cache_batch = env.fresh_workload(803).batch(60, *env.cache_band)
    for query in list(cache_batch)[:30]:
        r = a_star(graph, query.source, query.target)
        if r.found:
            cache.insert(r.path)
    probes = [(query.source, query.target) for query in cache_batch]

    def lookups() -> int:
        found = 0
        for a, b in probes:
            if cache.lookup(a, b) is not None:
                found += 1
        return found

    seconds, hits = best_of(lookups, rounds)
    metrics["cache.lookup_ms"] = _ms(seconds)
    metrics["cache.hits"] = _count(hits, direction="higher")

    seconds, index = best_of(lambda: GridIndex(graph, levels=5), rounds)
    metrics["grid.build_ms"] = _ms(seconds)
    metrics["grid.nonempty_cells"] = _count(index.nonempty_cells,
                                            direction="higher")
    return metrics


def _render(title: str, metrics: Dict[str, Metric]) -> str:
    from ..analysis.tables import render_table

    rows = [
        [key, f"{m.value:.6g}", m.unit or "-", m.kind]
        for key, m in sorted(metrics.items())
    ]
    return render_table(["metric", "value", "unit", "kind"], rows, title=title)


@suite("microbench", "per-primitive costs with their deterministic work counters",
       default_scale="small")
def microbench_suite(ctx: SuiteContext) -> SuiteRun:
    from ..network.grid import GridIndex
    from ..search.np_kernels import BACKEND_KNOB

    scale = ctx.scale_for(microbench_suite.__suite__)
    env = ctx.env(scale)
    metrics = _collect(env, batch=500, rounds=3)
    # The same grid build under the scalar loop that REPRO_KERNEL=csr pins.
    with mock.patch.dict(os.environ, {BACKEND_KNOB: "csr"}):
        seconds, _ = best_of(lambda: GridIndex(env.graph, levels=5), 3)
    metrics["grid.build_scalar_ms"] = _ms(seconds)
    return SuiteRun(metrics=metrics,
                    rendered=_render(f"Microbench ({scale})", metrics))


@suite("smoke", "CI-sized primitive metrics on the tiny network",
       default_scale="tiny")
def smoke_suite(ctx: SuiteContext) -> SuiteRun:
    scale = ctx.scale_for(smoke_suite.__suite__)
    metrics = _collect(ctx.env(scale), batch=120, rounds=2)
    return SuiteRun(metrics=metrics,
                    rendered=_render(f"Smoke bench ({scale})", metrics))
