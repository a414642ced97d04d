"""Customize-vs-rebuild budget for the customizable contraction index.

The claim :class:`~repro.index.cch.CustomizableContractionHierarchy`
makes, measured directly: after a traffic epoch perturbs edge weights,
re-customizing the metric-independent hierarchy is at least
``min_speedup``x (default 5) faster than rebuilding the legacy
witness-search :class:`~repro.index.ch.ContractionHierarchy` from
scratch.  Exactness is asserted (not timed) before and after the
epochs: every sampled customized-index distance must equal Dijkstra's
bit-for-bit.

Two informational rows keep the comparison honest.  Query latency is
reported against A* on the frozen snapshot — what ``repro serve``
runs when it has no index — as well as against plain Dijkstra; the
target (not a gate) is CCH no slower than A* at ``large``.  And the
customization pass is timed under both of its loops, the level-vectorised
numpy one and the scalar one ``REPRO_KERNEL=csr`` pins, which must leave
identical shortcut weights.

Timing uses best-of-``rounds`` (minimum) for the customization pass and
the minimum of the legacy builds for the rebuild — the same "how fast
can this code go" estimator the other kernel suites use, so scheduler
noise cannot manufacture a pass either way.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List
from unittest import mock

from .knobs import env_float, env_int, env_str
from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric


@dataclass
class CchOutcome:
    metrics: Dict[str, Metric]
    rendered: str
    #: Budget or exactness violations (empty = the claims hold).
    failures: List[str] = field(default_factory=list)


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cch_customize(
    scale: str = "large",
    queries: int = 40,
    rounds: int = 3,
    epochs: int = 3,
    min_speedup: float = 5.0,
) -> CchOutcome:
    """Measure customize-vs-rebuild and query latency; never exits."""
    from ..index.cch import CustomizableContractionHierarchy
    from ..index.ch import ContractionHierarchy
    from ..network.generators import beijing_like
    from ..search.astar import a_star
    from ..search.dijkstra import dijkstra
    from ..search.np_kernels import BACKEND_KNOB, kernel_backend, np_available

    failures: List[str] = []
    lines = [f"network        : beijing_like({scale!r})"]
    graph = beijing_like(scale, seed=0)
    n = graph.num_vertices
    lines.append(f"size           : {n} vertices, {graph.num_edges} edges")

    rng = random.Random(99)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
    edges = [(u, v) for u, v, _ in graph.edges()]

    def perturb() -> None:
        """One traffic epoch: slow ~20% of the arcs by 1.1-2.5x."""
        for u, v in rng.sample(edges, max(1, len(edges) // 5)):
            graph.set_weight(u, v, graph.weight(u, v) * rng.uniform(1.1, 2.5))

    def check_exact(index, label: str) -> None:
        for s, t in pairs:
            want = dijkstra(graph, s, t).distance
            got = index.distance(s, t)
            if got != want:
                failures.append(
                    f"{label} diverged on {s}->{t}: index {got!r}, "
                    f"dijkstra {want!r}"
                )
                return

    # --- builds: legacy full-price vs order/customize split -----------
    legacy = ContractionHierarchy(graph)
    build_seconds = legacy.construction_seconds
    cch = CustomizableContractionHierarchy(graph)
    lines.append(
        f"legacy CH      : built in {build_seconds:.2f} s "
        f"({legacy.num_shortcuts} shortcuts)"
    )
    lines.append(
        f"cch order      : {cch.order_seconds * 1e3:.0f} ms "
        f"({cch.num_super_edges} super-edges, {cch.num_triangles} triangles "
        f"in {cch.num_levels} levels)"
    )
    lines.append(f"cch customize  : {cch.customize_seconds * 1e3:.1f} ms (initial)")
    check_exact(cch, "cch (initial)")

    # --- traffic epochs: re-customize only, never re-order ------------
    for _ in range(epochs):
        perturb()
        cch.customize()
    check_exact(cch, f"cch (after {epochs} epochs)")
    customize_seconds = _best_of(cch.customize, rounds)
    lines.append(
        f"re-customize   : {customize_seconds * 1e3:.1f} ms "
        f"(best of {rounds}, after {epochs} weight epochs)"
    )

    # --- the same pass under the scalar loop (REPRO_KERNEL=csr) -------
    vectorized = np_available() and kernel_backend() != "csr"
    vectorized_weights = cch.shortcut_weights()
    with mock.patch.dict(os.environ, {BACKEND_KNOB: "csr"}):
        scalar_seconds = _best_of(cch.customize, rounds)
    if cch.shortcut_weights() != vectorized_weights:
        failures.append("scalar and numpy customization disagree on weights")
    lines.append(
        f"scalar loop    : {scalar_seconds * 1e3:.1f} ms "
        + (
            f"({scalar_seconds / max(customize_seconds, 1e-12):.1f}x the numpy loop)"
            if vectorized
            else "(numpy loop unavailable: the row above is scalar too)"
        )
    )

    # --- the rebuild the legacy index would need for the same epochs --
    rebuild_seconds = min(
        build_seconds, ContractionHierarchy(graph).construction_seconds
    )
    speedup = (
        rebuild_seconds / customize_seconds
        if customize_seconds > 0
        else float("inf")
    )
    lines.append(f"legacy rebuild : {rebuild_seconds:.2f} s")
    lines.append(
        f"speedup        : {speedup:.1f}x (required >= {min_speedup:.1f}x)"
    )

    # --- query latency (informational) --------------------------------
    def cch_queries() -> None:
        for s, t in pairs:
            cch.query(s, t)

    def dijkstra_queries() -> None:
        for s, t in pairs:
            dijkstra(graph, s, t)

    def astar_queries() -> None:
        for s, t in pairs:
            a_star(graph, s, t)

    cch_query_us = _best_of(cch_queries, rounds) / queries * 1e6
    dijkstra_query_us = _best_of(dijkstra_queries, rounds) / queries * 1e6
    # ``serve`` without an index answers by A* on the frozen snapshot.
    graph.freeze()
    astar_query_us = _best_of(astar_queries, rounds) / queries * 1e6
    lines.append(
        f"query latency  : cch {cch_query_us:.0f} us, "
        f"a* {astar_query_us:.0f} us "
        f"({astar_query_us / max(cch_query_us, 1e-9):.1f}x), "
        f"dijkstra {dijkstra_query_us:.0f} us "
        f"({dijkstra_query_us / max(cch_query_us, 1e-9):.1f}x)"
    )

    if speedup < min_speedup:
        failures.append(
            f"customize speedup {speedup:.2f}x below the "
            f"{min_speedup:.2f}x budget"
        )

    metrics = {
        "ch_rebuild_s": Metric(rebuild_seconds, unit="s", kind="time",
                               tolerance_pct=40.0),
        "cch_order_ms": Metric(cch.order_seconds * 1e3, unit="ms", kind="time",
                               tolerance_pct=40.0),
        "cch_customize_ms": Metric(customize_seconds * 1e3, unit="ms",
                                   kind="time", tolerance_pct=40.0),
        "customize_speedup": Metric(speedup, kind="ratio", direction="higher",
                                    tolerance_pct=40.0),
        "super_edges": Metric(float(cch.num_super_edges), kind="count"),
        "triangles": Metric(float(cch.num_triangles), kind="count"),
        "cch_query_us": Metric(cch_query_us, unit="us", kind="time",
                               tolerance_pct=60.0),
        "dijkstra_query_us": Metric(dijkstra_query_us, unit="us", kind="time",
                                    tolerance_pct=60.0),
        "astar_query_us": Metric(astar_query_us, unit="us", kind="time",
                                 tolerance_pct=60.0),
        "cch_customize_scalar_ms": Metric(scalar_seconds * 1e3, unit="ms",
                                          kind="time", tolerance_pct=40.0),
        "budget_failures": Metric(float(len(failures)), kind="info"),
    }
    return CchOutcome(metrics=metrics, rendered="\n".join(lines),
                      failures=failures)


@suite("cch_customize", "CCH customize-vs-rebuild speedup budget",
       default_scale="large")
def cch_customize_suite(ctx: SuiteContext) -> SuiteRun:
    scale = ctx.scale if ctx.scale is not None else env_str(
        "REPRO_CCH_SCALE", "large"
    )
    outcome = run_cch_customize(
        scale=scale,
        queries=env_int("REPRO_CCH_QUERIES", 40),
        rounds=env_int("REPRO_CCH_ROUNDS", 3),
        epochs=env_int("REPRO_CCH_EPOCHS", 3),
        min_speedup=env_float("REPRO_CCH_MIN_SPEEDUP", 5.0),
    )
    return SuiteRun(metrics=outcome.metrics, rendered=outcome.rendered)
