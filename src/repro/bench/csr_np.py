"""Vectorized numpy batch-sweep speedup over the per-query dict loop.

Companion to the ``csr`` suite: where that one gates the scalar CSR
kernels, this one gates the joint sweep
:func:`repro.search.np_kernels.np_batch_dijkstra` — batch point-to-point
at a realistic cluster width.

Timing uses best-of-``rounds`` (minimum) rather than the median: the
vectorized sweep's wall time is dominated by a handful of large
allocations whose variance under container scheduling noise is far
larger than the kernel's own variance, and the minimum is the standard
estimator for "how fast can this code go" (cf. ``timeit``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

from .knobs import env_float, env_int, env_str
from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric


@dataclass
class CsrNpOutcome:
    metrics: Dict[str, Metric]
    rendered: str
    #: Budget violations (empty = the speedup claims hold).
    failures: List[str] = field(default_factory=list)


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_csr_np(
    scale: str = "xlarge",
    batch: int = 64,
    rounds: int = 5,
    min_speedup: float = 5.0,
) -> CsrNpOutcome:
    """Measure numpy-vs-dict batch speedups; never exits, only reports."""
    from ..network.generators import beijing_like
    from ..search import np_kernels
    from ..search.dijkstra import dijkstra

    if not np_kernels.np_available():
        return CsrNpOutcome(
            metrics={"numpy_available": Metric(0.0, kind="info")},
            rendered="numpy unavailable: csr_np suite skipped",
        )

    lines = [f"network        : beijing_like({scale!r})"]
    graph = beijing_like(scale, seed=0)
    n = graph.num_vertices
    lines.append(f"size           : {n} vertices, {graph.num_edges} edges")
    lines.append(f"batch          : {batch} queries, best of {rounds} rounds")

    rng = random.Random(99)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(batch)]

    # Dict path: a copy that is never frozen, so dispatch cannot switch.
    dict_graph = graph.copy()
    csr = graph.freeze()
    np_kernels.warm_view(csr)  # build the flat-buffer view outside timing

    # --- batch point-to-point ---------------------------------------
    def dict_p2p():
        return [dijkstra(dict_graph, s, t) for s, t in pairs]

    def np_p2p():
        return np_kernels.np_batch_dijkstra(csr, pairs)

    truth, got = dict_p2p(), np_p2p()  # warm both paths + verify answers
    for want, have in zip(truth, got):
        assert (want.distance, want.path) == (have.distance, have.path)
    dict_seconds = _best_of(dict_p2p, rounds)
    np_seconds = _best_of(np_p2p, rounds)
    p2p_speedup = dict_seconds / np_seconds if np_seconds > 0 else float("inf")
    lines.append(f"dict p2p loop  : {dict_seconds * 1e3:.1f} ms / {batch} queries")
    lines.append(f"np batch p2p   : {np_seconds * 1e3:.1f} ms / {batch} queries")
    lines.append(
        f"p2p speedup    : {p2p_speedup:.2f}x (required >= {min_speedup:.2f}x)"
    )

    failures = []
    if p2p_speedup < min_speedup:
        failures.append(
            f"np batch p2p speedup {p2p_speedup:.2f}x below the "
            f"{min_speedup:.2f}x budget"
        )

    metrics = {
        "numpy_available": Metric(1.0, kind="info"),
        "dict_p2p_ms": Metric(dict_seconds * 1e3, unit="ms", kind="time",
                              tolerance_pct=40.0),
        "np_p2p_ms": Metric(np_seconds * 1e3, unit="ms", kind="time",
                            tolerance_pct=40.0),
        "p2p_speedup": Metric(p2p_speedup, kind="ratio", direction="higher",
                              tolerance_pct=40.0),
        "budget_failures": Metric(float(len(failures)), kind="info"),
    }
    return CsrNpOutcome(metrics=metrics, rendered="\n".join(lines),
                        failures=failures)


@suite("csr_np", "vectorized numpy batch-kernel speedup budget",
       default_scale="xlarge")
def csr_np_suite(ctx: SuiteContext) -> SuiteRun:
    scale = ctx.scale if ctx.scale is not None else env_str(
        "REPRO_CSR_NP_SCALE", "xlarge"
    )
    outcome = run_csr_np(
        scale=scale,
        batch=env_int("REPRO_CSR_NP_BATCH", 64),
        rounds=env_int("REPRO_CSR_NP_ROUNDS", 5),
        min_speedup=env_float("REPRO_CSR_NP_MIN_SPEEDUP", 5.0),
    )
    return SuiteRun(metrics=outcome.metrics, rendered=outcome.rendered)
