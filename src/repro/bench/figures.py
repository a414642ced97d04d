"""Figure/table experiments as harnessed suites.

The measurement bodies are the existing :mod:`repro.analysis.experiments`
runners — the same ones the ``benchmarks/test_fig*.py`` pytest scripts
assert shapes on.  This module only *types* their output: each series
point becomes a :class:`~repro.bench.schema.Metric` with a kind,
direction and noise tolerance, so ``repro bench compare`` can tell a
hit-ratio regression (deterministic, zero tolerance) from wall-time
scatter (generous tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.export import series_points
from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric

#: Wall-time series vary run-to-run; counters and ratios do not.
TIME_TOLERANCE_PCT = 35.0


@dataclass(frozen=True)
class MetricStyle:
    unit: str = "s"
    kind: str = "time"
    direction: str = "lower"
    tolerance_pct: float = TIME_TOLERANCE_PCT


#: How each experiment's series values are typed.
STYLES: Dict[str, MetricStyle] = {
    "fig7a": MetricStyle(),
    "fig7b": MetricStyle(unit="", kind="ratio", direction="higher", tolerance_pct=0.0),
    "fig7c": MetricStyle(unit="", kind="ratio", direction="higher", tolerance_pct=0.0),
    "fig7d": MetricStyle(),
    "fig7d_vnn": MetricStyle(unit="vertices", kind="count", tolerance_pct=0.0),
    "fig7d_frozen": MetricStyle(),
    "fig7d_vnn_frozen": MetricStyle(unit="vertices", kind="count", tolerance_pct=0.0),
    "fig7e": MetricStyle(),
    "fig7f": MetricStyle(),
    "fig7f_vnn": MetricStyle(unit="vertices", kind="count", tolerance_pct=0.0),
    "fig7f_frozen": MetricStyle(),
    "fig7f_vnn_frozen": MetricStyle(unit="vertices", kind="count", tolerance_pct=0.0),
    "fig8": MetricStyle(tolerance_pct=45.0),
    "table1": MetricStyle(unit="MB", kind="bytes", tolerance_pct=0.0),
    "table2": MetricStyle(unit="%", kind="ratio", tolerance_pct=0.0),
}


def experiment_metrics(result) -> Dict[str, Metric]:
    """Type an :class:`ExperimentResult`'s flattened series as metrics."""
    style = STYLES.get(result.experiment, MetricStyle())
    return {
        key: Metric(
            value=value,
            unit=style.unit,
            kind=style.kind,
            direction=style.direction,
            tolerance_pct=style.tolerance_pct,
        )
        for key, value in series_points(result)
    }


def _run(result) -> SuiteRun:
    return SuiteRun(metrics=experiment_metrics(result), rendered=result.rendered)


@suite("fig7a", "decomposition time of the three methods vs batch size")
def fig7a(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7a.__suite__)
    return _run(exp.run_fig7a(ctx.env(scale), ctx.sizes()))


@suite("fig7b", "cache hit ratio of GC/ZLC/SLC vs batch size")
def fig7b(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7b.__suite__)
    return _run(exp.run_fig7b(ctx.env(scale), ctx.cache_suites(scale)))


@suite("fig7c", "hit ratio vs cache-size fraction")
def fig7c(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7c.__suite__)
    return _run(exp.run_fig7c(ctx.env(scale), ctx.cache_suites(scale)))


@suite("fig7d", "batch answering time (plus the VNN companion artefact)")
def fig7d(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7d.__suite__)
    suites = ctx.cache_suites(scale)
    main = exp.run_fig7d(ctx.env(scale), suites)
    vnn = exp.run_fig7d_vnn(ctx.env(scale), suites)
    run = _run(main)
    run.metrics.update(
        {f"vnn.{k}": m for k, m in experiment_metrics(vnn).items()}
    )
    run.extra_renders[vnn.experiment] = vnn.rendered
    return run


@suite("fig7e", "answering time vs cache-size fraction")
def fig7e(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7e.__suite__)
    return _run(exp.run_fig7e(ctx.env(scale), ctx.cache_suites(scale)))


@suite("fig7f", "R2R query time (plus the VNN companion artefact)")
def fig7f(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig7f.__suite__)
    suites = ctx.r2r_suites(scale)
    main = exp.run_fig7f(ctx.env(scale), suites)
    vnn = exp.run_fig7f_vnn(ctx.env(scale), suites)
    run = _run(main)
    run.metrics.update(
        {f"vnn.{k}": m for k, m in experiment_metrics(vnn).items()}
    )
    run.extra_renders[vnn.experiment] = vnn.rendered
    return run


@suite("fig8", "40-server makespan per method plus index construction")
def fig8(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(fig8.__suite__)
    result = exp.run_fig8(ctx.env(scale), size=400, num_servers=40,
                          include_indexes=True)
    return _run(result)


@suite("table1", "Global Cache size (MB) per batch size")
def table1(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(table1.__suite__)
    return _run(exp.run_table1(ctx.env(scale), ctx.cache_suites(scale)))


@suite("table2", "R2R approximation error vs eta")
def table2(ctx: SuiteContext) -> SuiteRun:
    from ..analysis import experiments as exp

    scale = ctx.scale_for(table2.__suite__)
    return _run(exp.run_table2(ctx.env(scale), ctx.r2r_suites(scale)))
