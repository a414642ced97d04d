"""Command-line interface: reproduce any table/figure, or run one batch.

Examples
--------
Reproduce one experiment at benchmark scale::

    python -m repro.cli reproduce --experiment fig7a --scale small

Reproduce everything (writes plain-text artefacts to ``--out``)::

    python -m repro.cli reproduce --experiment all --out results/

Answer one generated batch with a chosen method, saving metrics/spans::

    python -m repro.cli run --method slc-s --size 500 --scale small \
        --metrics-out metrics.json --spans-out spans.jsonl
    python -m repro.cli obs summary metrics.json
    python -m repro.cli obs summary spans.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .analysis import experiments as exp
from .core.batch_runner import METHODS, BatchProcessor

EXPERIMENTS = (
    "fig7a",
    "table1",
    "fig7b",
    "fig7c",
    "fig7d",
    "fig7e",
    "fig7f",
    "table2",
    "fig8",
)


def _parse_sizes(text: Optional[str]) -> Sequence[int]:
    if not text:
        return exp.DEFAULT_SIZES
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"invalid --sizes value {text!r}; expected e.g. 100,300,900")
    if not sizes:
        raise SystemExit("--sizes must name at least one size")
    return sizes


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.report:
        from .analysis.report import generate_report

        text = generate_report(
            scale=args.scale,
            sizes=_parse_sizes(args.sizes),
            seed=args.seed,
            fig8_size=args.fig8_size,
            num_servers=args.servers,
            path=args.report,
        )
        print(f"report written to {args.report} ({len(text.splitlines())} lines)")
        return 0

    env = exp.build_env(scale=args.scale, seed=args.seed)
    sizes = _parse_sizes(args.sizes)
    wanted = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    results: List[exp.ExperimentResult] = []
    cache_suites = None
    r2r_suites = None
    for name in wanted:
        if name == "fig7a":
            results.append(exp.run_fig7a(env, sizes))
        elif name in ("table1", "fig7b", "fig7c", "fig7d", "fig7e"):
            if cache_suites is None:
                cache_suites = exp.run_cache_suite(env, sizes)
            runner = {
                "table1": exp.run_table1,
                "fig7b": exp.run_fig7b,
                "fig7c": exp.run_fig7c,
                "fig7d": exp.run_fig7d,
                "fig7e": exp.run_fig7e,
            }[name]
            results.append(runner(env, cache_suites))
        elif name in ("fig7f", "table2"):
            if r2r_suites is None:
                r2r_suites = exp.run_r2r_suite(env, sizes)
            runner = {"fig7f": exp.run_fig7f, "table2": exp.run_table2}[name]
            results.append(runner(env, r2r_suites))
        elif name == "fig8":
            results.append(
                exp.run_fig8(
                    env,
                    size=args.fig8_size,
                    num_servers=args.servers,
                    measure_workers=args.measure_workers,
                )
            )
        else:
            raise SystemExit(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        print(result.rendered)
        print()
        if out_dir is not None:
            (out_dir / f"{result.experiment}.txt").write_text(
                result.rendered + "\n", encoding="utf-8"
            )
    return 0


def _engine_options(args: argparse.Namespace) -> dict:
    """Resilience knobs shared by ``run`` and ``chaos``."""
    from .resilience import FaultPlan, RetryPolicy

    options: dict = {}
    if getattr(args, "fault_plan", None):
        options["fault_plan"] = FaultPlan.from_file(args.fault_plan)
    if getattr(args, "max_attempts", None):
        options["retry_policy"] = RetryPolicy(max_attempts=args.max_attempts)
    if getattr(args, "unit_timeout", None):
        options["unit_timeout"] = args.unit_timeout
    return options


def _print_resilience(report) -> None:
    from .resilience import render_dead_letters

    print(f"{'retries':>20}: {report.retries}")
    print(f"{'quarantined units':>20}: {report.quarantined_units}")
    if report.faults_injected:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.faults_by_kind.items())
        )
        print(f"{'faults injected':>20}: {report.faults_injected} ({kinds})")
    if report.dead_letters:
        print(f"{'dead letters':>20}: {len(report.dead_letters)}")
        print(render_dead_letters(report.dead_letters))


def cmd_run(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, use_registry, write_metrics_json

    env = exp.build_env(scale=args.scale, seed=args.seed)
    band = env.r2r_band if args.method.startswith("r2r") else env.cache_band
    queries = env.workload.batch(args.size, min_dist=band[0], max_dist=band[1])
    processor = BatchProcessor(
        env.graph,
        eta=args.eta,
        seed=args.seed,
        super_snap_radius=args.snap_radius,
        eviction=args.eviction,
        workers=args.workers,
        engine_options=_engine_options(args),
        frozen=args.frozen,
    )
    registry = MetricsRegistry() if (args.metrics_out or args.spans_out) else None
    if registry is not None:
        with use_registry(registry):
            answer = processor.process(queries, args.method)
    else:
        answer = processor.process(queries, args.method)
    for key, value in answer.summary().items():
        print(f"{key:>20}: {value:.6g}")
    report = answer.execution_report
    if report is not None:
        schedule = report.schedule_result()
        print(f"{'measured speedup':>20}: {schedule.speedup:.6g}")
        print(f"{'utilisation':>20}: {schedule.utilisation:.6g}")
        print(f"{'mean queue wait':>20}: {schedule.mean_queue_wait_seconds:.6g}")
        print(f"{'fallback units':>20}: {report.fallbacks}")
        _print_resilience(report)
    if registry is not None:
        import json

        snapshot = registry.snapshot()
        if args.metrics_out:
            write_metrics_json(snapshot, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in snapshot.spans:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
            print(f"spans written to {args.spans_out}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Render a saved metrics JSON or span JSONL file as text tables."""
    import json

    from .obs import read_jsonl, render_metrics_summary, render_stage_table

    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"no such file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        data = None
    if isinstance(data, dict) and (
        "counters" in data or "gauges" in data or "histograms" in data
    ):
        print(render_metrics_summary(data))
    else:
        # Span JSONL (one object per line) — fall back to the stage table.
        print(render_stage_table(read_jsonl(path)))
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    """Run the dynamic-traffic scenario: epochs, cache reuse, flushes."""
    import random

    from .core.dynamic import DynamicBatchSession
    from .core.local_cache import LocalCacheAnswerer
    from .core.search_space import SearchSpaceDecomposer

    env = exp.build_env(scale=args.scale, seed=args.seed)
    graph = env.graph.copy()  # weights will be mutated
    session = DynamicBatchSession(
        graph,
        decomposer=SearchSpaceDecomposer(graph),
        answerer=LocalCacheAnswerer(graph, cache_bytes=args.cache_kb * 1024),
        similarity_threshold=args.similarity,
    )
    rng = random.Random(args.seed)
    workload = env.fresh_workload(707)
    print(f"{'batch':>5} {'epoch':>5} {'time(s)':>8} {'hit':>6} {'caches':>6} {'reused':>6}")
    epoch = 1
    for i in range(1, args.batches + 1):
        if args.epoch_every and i > 1 and (i - 1) % args.epoch_every == 0:
            edges = list(graph.edges())
            for u, v, w in rng.sample(edges, max(1, len(edges) // 10)):
                graph.set_weight(u, v, w * rng.uniform(1.2, 2.5))
            epoch += 1
        batch = workload.batch(args.size)
        answer = session.process_batch(batch)
        print(
            f"{i:>5} {epoch:>5} {answer.total_seconds:>8.4f} "
            f"{answer.hit_ratio:>6.3f} {session.live_cache_count:>6} "
            f"{session.caches_reused:>6}"
        )
    print(
        f"created={session.caches_created} reused={session.caches_reused} "
        f"flushed_epochs={session.epochs_flushed}"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """End-to-end chaos drill: the windowed service under a seeded fault plan.

    Runs the same arrival stream twice — a fault-free serial baseline and
    a faulted run with ``--workers`` processes — and enforces the chaos
    invariant: every valid query answered with a distance identical to the
    baseline, every malformed query dead-lettered with a reason, zero
    queries dropped.  Exit status 1 on any violation, so CI can gate on it.
    """
    import math
    import random

    from .obs import MetricsRegistry, use_registry
    from .queries.arrivals import TimedQuery
    from .queries.query import Query
    from .resilience import (
        FaultPlan,
        REASON_INVALID_QUERY,
        RetryPolicy,
        default_chaos_plan,
        summarize_dead_letters,
    )
    from .service import BatchQueryService

    env = exp.build_env(scale=args.scale, seed=args.seed)
    graph = env.graph
    queries = list(env.workload.batch(args.size, *env.cache_band))
    n = graph.num_vertices
    bad = [Query(n + i, i % n) for i in range(args.bad_queries)]
    stream = queries + bad
    random.Random(args.seed).shuffle(stream)
    span = args.windows * args.window_seconds
    dt = span / (len(stream) + 1)
    arrivals = [TimedQuery(i * dt, q) for i, q in enumerate(stream)]

    if args.fault_plan:
        plan = FaultPlan.from_file(args.fault_plan)
    else:
        plan = default_chaos_plan(seed=args.seed)
    policy = RetryPolicy(max_attempts=args.max_attempts)

    # Fault-free serial baseline (workers=0 = the engine path in-process).
    with BatchQueryService(
        graph, window_seconds=args.window_seconds, workers=0, frozen=args.frozen
    ) as baseline_service:
        baseline = baseline_service.run(arrivals)

    registry = MetricsRegistry()
    with use_registry(registry):
        with BatchQueryService(
            graph,
            window_seconds=args.window_seconds,
            workers=args.workers,
            fault_plan=plan,
            retry_policy=policy,
            unit_timeout=args.unit_timeout,
            frozen=args.frozen,
            start_method=args.start_method,
        ) as chaos_service:
            chaos = chaos_service.run(arrivals)

    def answer_key(report):
        return sorted(
            (q.source, q.target, round(r.distance, 9))
            for w in report.windows
            if w.answer is not None
            for q, r in w.answer.answers
        )

    failures = []
    base_key = answer_key(baseline)
    chaos_key = answer_key(chaos)
    if base_key != chaos_key:
        missing = len(set(base_key) - set(chaos_key))
        extra = len(set(chaos_key) - set(base_key))
        failures.append(
            f"answers diverge from the fault-free baseline "
            f"({missing} missing, {extra} unexpected/changed)"
        )
    invalid_letters = [
        d for d in chaos.dead_letters if d.reason == REASON_INVALID_QUERY
    ]
    if len(invalid_letters) != len(bad):
        failures.append(
            f"expected {len(bad)} invalid-query dead letters, got "
            f"{len(invalid_letters)}"
        )
    accounted = chaos.answered_queries + len(chaos.dead_letters)
    if accounted != len(stream):
        failures.append(
            f"{len(stream)} queries in, {accounted} accounted for "
            f"(answered + dead-lettered): queries were dropped"
        )

    snap = registry.snapshot()
    resilience_counts = {
        k: v for k, v in sorted(snap.counters.items()) if k.startswith("resilience.")
    }
    print(f"queries       : {len(stream)} ({len(bad)} malformed)")
    print(f"windows       : {chaos.busy_windows} busy / {len(chaos.windows)}")
    print(f"answered      : {chaos.answered_queries}")
    print(f"dead letters  : {len(chaos.dead_letters)} "
          f"{summarize_dead_letters(chaos.dead_letters)}")
    print(f"retries       : {chaos.total_retries}")
    print(f"degraded wins : {chaos.degraded_windows}")
    for name, value in resilience_counts.items():
        print(f"  {name:<40} {value:g}")
    if not math.isclose(
        sum(1 for _ in baseline.dead_letters if _.reason == REASON_INVALID_QUERY),
        len(bad),
    ):
        failures.append("baseline did not dead-letter the malformed queries")
    if failures:
        for failure in failures:
            print(f"CHAOS FAILED: {failure}")
        return 1
    print("CHAOS OK: every valid query answered identically to the "
          "fault-free baseline; malformed queries dead-lettered")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the online streaming service over a generated arrival stream.

    Generates a Poisson query stream at ``--rate`` qps for ``--duration``
    seconds, then serves it through :class:`~repro.streaming.
    StreamingQueryService`: micro-batch windows cut at ``--window-ms`` or
    ``--max-batch``, admission control with the chosen shedding policy,
    cross-window path caching, and the parallel backend at ``--workers``.
    Exit status 1 if any query goes unaccounted (answered nor
    dead-lettered), or — with ``--fail-on-drop`` — if any query was shed
    without an answer; CI gates its smoke run on that.

    Robustness knobs: ``--deadline-ms`` arms a per-query end-to-end
    budget; ``--journal`` write-aheads every arrival so ``--recover``
    can replay what a killed run still owed; SIGTERM/SIGINT (or
    ``--drain-after``) drain gracefully — stop admitting, flush the open
    window, answer everything in flight; ``--watchdog-timeout`` arms the
    hung-worker watchdog on the pool backend.
    """
    import signal

    from .obs import MetricsRegistry, use_registry, write_metrics_json
    from .queries.arrivals import PoissonArrivals, stream_statistics
    from .streaming import (
        TRIGGER_ADMISSION,
        ArrivalJournal,
        StreamingQueryService,
    )

    if args.recover and not args.journal:
        raise SystemExit("--recover requires --journal")

    env = exp.build_env(scale=args.scale, seed=args.seed)
    graph = env.graph.copy() if args.epoch_every else env.graph

    journal = None
    recovered_pending = 0
    if args.journal:
        journal = ArrivalJournal(args.journal)
        recovered_pending = len(journal.pending_arrivals())

    if args.recover:
        arrivals = journal.pending_arrivals()
        if not arrivals:
            print(f"RECOVER OK: journal {args.journal} has no pending "
                  "arrivals")
            journal.close()
            return 0
    else:
        band = env.cache_band
        arrivals = PoissonArrivals(
            env.workload, rate=args.rate, seed=args.seed,
            min_dist=band[0], max_dist=band[1],
        ).duration(args.duration)

    timeline = None
    if args.epoch_every:
        from .network.timeline import TrafficTimeline, congestion_snapshot

        timeline = TrafficTimeline(graph, seed=args.seed)
        t = args.epoch_every
        while t < args.duration:
            timeline.schedule(t, congestion_snapshot(), label=f"epoch@{t:g}s")
            t += args.epoch_every

    backend_options = {}
    if args.fault_plan:
        from .resilience import FaultPlan

        backend_options["fault_plan"] = FaultPlan.from_file(args.fault_plan)
    if args.watchdog_timeout > 0:
        from .resilience import WorkerWatchdog

        backend_options["watchdog"] = WorkerWatchdog(
            hang_timeout=args.watchdog_timeout
        )

    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            with StreamingQueryService(
                graph,
                window_seconds=args.window_ms / 1000.0,
                max_batch=args.max_batch if args.max_batch > 0 else None,
                queue_capacity=args.queue_capacity,
                shed_policy=args.shed_policy,
                workers=args.workers,
                clock=args.clock,
                timeline=timeline,
                index=args.index,
                stream_cache_bytes=args.cache_kb * 1024,
                service_seconds_per_query=args.service_cost,
                query_deadline_seconds=(
                    args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
                ),
                journal=journal,
                drain_after_seconds=(
                    args.drain_after if args.drain_after > 0 else None
                ),
                **backend_options,
            ) as service:
                # Graceful drain on SIGTERM/SIGINT: flip the flag, let the
                # run loop flush the open window and answer what it owes.
                def _drain_signal(signum, frame):
                    print(f"signal {signum}: draining (stop admitting, "
                          "flush open window)...", flush=True)
                    service.request_drain()

                previous = {}
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        previous[sig] = signal.signal(sig, _drain_signal)
                    except ValueError:  # pragma: no cover - non-main thread
                        pass
                try:
                    report = service.run(arrivals)
                finally:
                    for sig, handler in previous.items():
                        signal.signal(sig, handler)
    finally:
        if journal is not None:
            journal.close()

    stats = stream_statistics(arrivals)
    print(f"stream        : {stats['count']} queries over "
          f"{stats['duration']:.2f}s (rate {stats['rate']:.1f} qps, "
          f"cv {stats['cv']:.2f})")
    print(f"clock         : {args.clock}")
    by_trigger = report.windows_by_trigger
    admission_records = by_trigger.pop(TRIGGER_ADMISSION, 0)
    triggers = ", ".join(f"{k}={v}" for k, v in sorted(by_trigger.items()))
    print(f"windows       : {sum(by_trigger.values())} "
          f"({triggers or 'none'}), "
          f"mean size {report.mean_window_size:.1f}; "
          f"sealed at admission {report.sealed_at_admission_cache} cache / "
          f"{report.sealed_at_admission_index} index "
          f"({admission_records} records)")
    print(f"answered      : {report.answered_queries}")
    print(f"shed          : {report.shed_degraded} degraded, "
          f"{report.shed_dropped} dropped "
          f"({report.backpressure_stalls} backpressure stalls)")
    print(f"dead letters  : {len(report.dead_letters)}")
    if args.deadline_ms > 0:
        print(f"deadline      : {args.deadline_ms:g} ms budget, "
              f"{report.deadline_expired} expired, "
              f"{report.deadline_degraded} degraded to Dijkstra")
    if report.drained:
        suffix = " (still pending in the journal)" if args.journal else ""
        print(f"drained       : {report.unadmitted_arrivals} undue arrivals "
              f"abandoned{suffix}")
    if args.journal:
        mode = "recover" if args.recover else "journal"
        print(f"{mode:<14}: {args.journal} "
              f"({report.replayed_arrivals} replayed, "
              f"{recovered_pending} pending at open)")
    print(f"stream cache  : {report.stream_cache_hits} hits / "
          f"{report.stream_cache_misses} misses / "
          f"{report.stream_cache_invalidations} invalidations")
    if args.index != "none":
        print(f"index         : {args.index} "
              f"({report.sealed_at_admission_index} answered on arrival, "
              f"{report.index_served_windows} records served, "
              f"{report.index_customizations} re-customizations)")
    print(f"latency       : p50 {report.p50_latency * 1000:.1f} ms, "
          f"p99 {report.p99_latency * 1000:.1f} ms")
    print(f"throughput    : {report.qps:.1f} answered qps over "
          f"{report.wall_seconds:.2f}s")
    if report.metrics is not None and args.metrics_out:
        write_metrics_json(report.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")

    if report.unaccounted_queries:
        print(f"SERVE FAILED: {report.unaccounted_queries} queries "
              "unaccounted (neither answered nor dead-lettered)")
        return 1
    if args.fail_on_drop and report.dropped_queries:
        print(f"SERVE FAILED: {report.dropped_queries} queries dropped "
              "(--fail-on-drop)")
        return 1
    print("SERVE OK: every query answered or dead-lettered")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Cross-validate the stack on this machine: exactness + error bounds."""
    import math

    from .core.batch_runner import BatchProcessor
    from .search.dijkstra import dijkstra

    env = exp.build_env(scale=args.scale, seed=args.seed)
    processor = BatchProcessor(env.graph, eta=args.eta, seed=args.seed)
    failures = 0

    batch = env.fresh_workload(606).batch(args.size, *env.cache_band)
    oracle = {
        q: dijkstra(env.graph, q.source, q.target).distance
        for q in batch.deduplicated()
    }
    for method in ("astar", "astar-alt", "gc", "zlc", "slc-s", "slc-r", "zigzag-petal"):
        answer = processor.process(batch, method)
        bad = sum(
            1
            for q, r in answer.answers
            if not math.isclose(r.distance, oracle[q], rel_tol=1e-9)
        )
        failures += bad
        print(f"  exact    {method:<13} {len(answer.answers):>5} answers, "
              f"{bad} mismatches")

    long_batch = env.fresh_workload(607).batch(args.size, *env.r2r_band)
    long_oracle = {
        q: dijkstra(env.graph, q.source, q.target).distance
        for q in long_batch.deduplicated()
    }
    for method in ("r2r-s", "r2r-r"):
        answer = processor.process(long_batch, method)
        bad = sum(
            1
            for q, r in answer.answers
            if r.distance > long_oracle[q] * (1 + args.eta) + 1e-9
            or r.distance < long_oracle[q] - 1e-9
        )
        failures += bad
        print(f"  bounded  {method:<13} {len(answer.answers):>5} answers, "
              f"{bad} bound violations (eta={args.eta})")

    if failures:
        print(f"VERIFY FAILED: {failures} violations")
        return 1
    print("VERIFY OK: every method exact or within its bound")
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run registered benchmark suites, writing schema'd JSON per label."""
    from .bench import BenchConfigError, run_suites
    from .exceptions import ConfigurationError

    sizes = None
    if args.sizes:
        sizes = _parse_sizes(args.sizes)
    try:
        results = run_suites(
            args.suite,
            args.label,
            args.results_dir,
            scale=args.scale,
            sizes=sizes,
            seed=args.seed,
            repeat=args.repeat,
            on_progress=lambda line: print(line, flush=True),
        )
    except BenchConfigError as err:
        raise SystemExit(f"bench run failed: {err}")
    except ConfigurationError as err:
        raise SystemExit(str(err))
    total = sum(len(result.metrics) for result, _ in results)
    print(f"{len(results)} suite(s), {total} metrics recorded under "
          f"label {args.label!r}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Compare two labels; exit 1 on regressions or schema issues."""
    import json

    from .bench import SchemaError, compare_labels, render_markdown, verdict_payload

    try:
        report = compare_labels(
            args.results_dir,
            args.base,
            args.candidate,
            noise_threshold_pct=args.noise_threshold,
        )
    except SchemaError as err:
        raise SystemExit(f"bench compare failed: {err}")
    markdown = render_markdown(report, include_within_noise=args.all)
    print(markdown)
    if args.markdown_out:
        Path(args.markdown_out).write_text(markdown + "\n", encoding="utf-8")
        print(f"\nmarkdown written to {args.markdown_out}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(verdict_payload(report), indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"verdict written to {args.json_out}")
    return report.exit_code


def cmd_bench_list(args: argparse.Namespace) -> int:
    """List registered benchmark suites."""
    from .bench import all_suites

    for entry in all_suites():
        print(f"{entry.name:<14} scale={entry.default_scale:<8} "
              f"{entry.description}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    env = exp.build_env(scale=args.scale, seed=args.seed)
    graph = env.graph
    min_x, min_y, max_x, max_y = graph.extent()
    print(f"scale         : {args.scale}")
    print(f"vertices      : {graph.num_vertices}")
    print(f"edges         : {graph.num_edges}")
    print(f"extent (km)   : {max_x - min_x:.1f} x {max_y - min_y:.1f}")
    print(f"cache band    : {env.cache_band[0]:.1f} - {env.cache_band[1]:.1f} km")
    print(f"r2r band      : {env.r2r_band[0]:.1f} - {env.r2r_band[1]:.1f} km")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch shortest-path query decomposition (ICDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", default="small", help="network scale preset")
    common.add_argument("--seed", type=int, default=7, help="deterministic seed")

    p_rep = sub.add_parser("reproduce", parents=[common], help="regenerate a table/figure")
    p_rep.add_argument(
        "--experiment", default="all", help=f"one of {EXPERIMENTS} or 'all'"
    )
    p_rep.add_argument("--sizes", default=None, help="comma-separated batch sizes")
    p_rep.add_argument("--out", default=None, help="directory for text artefacts")
    p_rep.add_argument("--servers", type=int, default=40, help="fig8 server count")
    p_rep.add_argument("--fig8-size", type=int, default=600, help="fig8 batch size")
    p_rep.add_argument(
        "--measure-workers",
        type=int,
        default=None,
        help="fig8: also run the slc-s dispatch on this many real worker "
        "processes and report the measured makespan next to the LPT "
        "prediction",
    )
    p_rep.add_argument(
        "--report", default=None, help="write a one-shot markdown report to this path"
    )
    p_rep.set_defaults(func=cmd_reproduce)

    p_run = sub.add_parser("run", parents=[common], help="answer one generated batch")
    p_run.add_argument("--method", required=True, choices=METHODS)
    p_run.add_argument("--size", type=int, default=500)
    p_run.add_argument("--eta", type=float, default=0.05)
    p_run.add_argument("--snap-radius", type=float, default=0.0,
                       help="super-vertex snap radius (km); 0 = exact")
    p_run.add_argument("--eviction", default="none",
                       choices=["none", "lru", "benefit"],
                       help="local-cache eviction policy")
    p_run.add_argument("--workers", type=int, default=1,
                       help="worker processes for zlc/slc-s/r2r-s "
                       "(1 = single-process)")
    p_run.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run's metrics snapshot as JSON")
    p_run.add_argument("--spans-out", default=None, metavar="FILE",
                       help="write the run's span records as JSONL")
    p_run.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="JSON fault plan to inject into the engine "
                       "(see docs/robustness.md)")
    p_run.add_argument("--max-attempts", type=int, default=None,
                       help="retry budget per work unit (default 2)")
    p_run.add_argument("--unit-timeout", type=float, default=None,
                       help="per-attempt deadline (seconds) on each work unit")
    p_run.add_argument("--frozen", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="freeze the graph to the CSR kernels "
                       "(--no-frozen forces the dict-graph paths)")
    p_run.set_defaults(func=cmd_run)

    p_chaos = sub.add_parser(
        "chaos", parents=[common],
        help="fault-injected end-to-end drill of the windowed service",
    )
    p_chaos.add_argument("--size", type=int, default=120, help="valid queries")
    p_chaos.add_argument("--bad-queries", type=int, default=3,
                         help="malformed queries mixed into the stream")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker processes for the faulted run "
                         "(1 = serial session path)")
    p_chaos.add_argument("--windows", type=int, default=4,
                         help="scheduling windows the stream spans")
    p_chaos.add_argument("--window-seconds", type=float, default=0.5)
    p_chaos.add_argument("--fault-plan", default=None, metavar="FILE",
                         help="JSON fault plan (default: built-in chaos mix)")
    p_chaos.add_argument("--max-attempts", type=int, default=3)
    p_chaos.add_argument("--unit-timeout", type=float, default=None)
    p_chaos.add_argument("--frozen", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="freeze the graph to the CSR kernels "
                         "(--no-frozen forces the dict-graph paths)")
    p_chaos.add_argument("--start-method", default=None,
                         choices=["fork", "spawn", "forkserver"],
                         help="multiprocessing start method for the faulted "
                         "run (spawn exercises the shared-memory attach)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_dyn = sub.add_parser(
        "dynamic", parents=[common], help="dynamic-traffic cache reuse scenario"
    )
    p_dyn.add_argument("--batches", type=int, default=6)
    p_dyn.add_argument("--size", type=int, default=200)
    p_dyn.add_argument("--epoch-every", type=int, default=3, help="weight change period")
    p_dyn.add_argument("--cache-kb", type=int, default=512)
    p_dyn.add_argument("--similarity", type=float, default=0.3)
    p_dyn.set_defaults(func=cmd_dynamic)

    p_srv = sub.add_parser(
        "serve", parents=[common],
        help="online streaming service over a Poisson arrival stream",
    )
    p_srv.add_argument("--duration", type=float, default=5.0,
                       help="stream length in seconds")
    p_srv.add_argument("--rate", type=float, default=200.0,
                       help="Poisson arrival rate (queries/second)")
    p_srv.add_argument("--window-ms", type=float, default=250.0,
                       help="duration trigger: max window span (milliseconds)")
    p_srv.add_argument("--max-batch", type=int, default=64,
                       help="size trigger: max queries per window "
                       "(0 = timer only)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="backend worker processes (0 = serial engine, "
                       "1 = dynamic session)")
    p_srv.add_argument("--clock", default="simulated",
                       choices=["simulated", "real"],
                       help="simulated = deterministic replay, "
                       "real = wall-clock pacing")
    p_srv.add_argument("--queue-capacity", type=int, default=1024,
                       help="admission queue bound before shedding")
    p_srv.add_argument("--shed-policy", default="degrade",
                       choices=["degrade", "degrade-then-drop", "drop"],
                       help="what happens to queries shed at admission")
    p_srv.add_argument("--cache-kb", type=int, default=2048,
                       help="cross-window path cache budget (KiB, 0 = off)")
    p_srv.add_argument("--service-cost", type=float, default=0.0,
                       help="simulated seconds charged per dispatched query "
                       "(simulated clock only; creates reproducible overload)")
    p_srv.add_argument("--epoch-every", type=float, default=0.0,
                       help="schedule a congestion weight epoch every N "
                       "stream seconds (0 = static weights)")
    p_srv.add_argument("--index", default="none", choices=["none", "cch"],
                       help="answer cache misses from a customizable "
                       "contraction hierarchy that re-customizes on every "
                       "weight epoch (cch) instead of the batch backend")
    p_srv.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run's metrics snapshot as JSON")
    p_srv.add_argument("--fail-on-drop", action="store_true",
                       help="exit 1 if any query was shed without an answer "
                       "(unaccounted queries always exit 1)")
    p_srv.add_argument("--deadline-ms", type=float, default=0.0,
                       help="per-query end-to-end budget in milliseconds "
                       "(0 = no deadline); expired queries dead-letter "
                       "with reason deadline-exceeded")
    p_srv.add_argument("--journal", default=None, metavar="FILE",
                       help="append-only arrivals journal (crash-safe WAL); "
                       "reopening an existing file resumes its sequence")
    p_srv.add_argument("--recover", action="store_true",
                       help="replay the journal's unanswered arrivals "
                       "instead of generating a stream (requires --journal)")
    p_srv.add_argument("--drain-after", type=float, default=0.0,
                       help="request a graceful drain at this stream instant "
                       "(seconds; 0 = run to completion) — the deterministic "
                       "equivalent of SIGTERM")
    p_srv.add_argument("--watchdog-timeout", type=float, default=0.0,
                       help="hung-worker watchdog threshold in seconds "
                       "(0 = off; pool backend only)")
    p_srv.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="JSON fault plan (supports the 'stream' site: "
                       "hard-kill after a window, for recovery drills)")
    p_srv.set_defaults(func=cmd_serve)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="cross-validate exactness and bounds"
    )
    p_ver.add_argument("--size", type=int, default=120)
    p_ver.add_argument("--eta", type=float, default=0.05)
    p_ver.set_defaults(func=cmd_verify)

    p_obs = sub.add_parser("obs", help="observability artefact tools")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_sum = obs_sub.add_parser(
        "summary", help="render a metrics JSON or span JSONL file as tables"
    )
    p_obs_sum.add_argument("file", help="metrics .json or spans .jsonl path")
    p_obs_sum.set_defaults(func=cmd_obs)

    p_bench = sub.add_parser("bench", help="unified benchmark harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_bench_run = bench_sub.add_parser(
        "run", help="run registered suites, recording schema'd JSON per label"
    )
    p_bench_run.add_argument(
        "--suite", action="append", required=True, metavar="NAME",
        help="suite to run (repeatable; 'all' runs every registered suite; "
        "see `repro bench list`)",
    )
    p_bench_run.add_argument(
        "--label", required=True,
        help="label this run records under (results/<label>/<suite>.json)",
    )
    p_bench_run.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="results root (default benchmarks/results)",
    )
    p_bench_run.add_argument(
        "--scale", default=None,
        help="network scale override (default: REPRO_BENCH_SCALE or the "
        "suite's own default)",
    )
    p_bench_run.add_argument(
        "--sizes", default=None,
        help="comma-separated batch sizes for the figure suites",
    )
    p_bench_run.add_argument("--seed", type=int, default=7)
    p_bench_run.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run each suite N times (median-of-N comparison; extra runs "
        "write <suite>.run<k>.json siblings)",
    )
    p_bench_run.set_defaults(func=cmd_bench_run)

    p_bench_cmp = bench_sub.add_parser(
        "compare",
        help="compare two labels: markdown table + machine verdict, "
        "exit 1 on regressions",
    )
    p_bench_cmp.add_argument("base", help="baseline label")
    p_bench_cmp.add_argument("candidate", help="candidate label")
    p_bench_cmp.add_argument(
        "--noise-threshold", type=float, default=5.0, metavar="PCT",
        help="relative noise threshold in percent (default 5; per-metric "
        "tolerances widen it)",
    )
    p_bench_cmp.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="results root (default benchmarks/results)",
    )
    p_bench_cmp.add_argument(
        "--all", action="store_true",
        help="include within-noise rows in the detail table",
    )
    p_bench_cmp.add_argument(
        "--markdown-out", default=None, metavar="FILE",
        help="also write the markdown report to this path",
    )
    p_bench_cmp.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write the machine-readable verdict JSON to this path",
    )
    p_bench_cmp.set_defaults(func=cmd_bench_compare)

    p_bench_list = bench_sub.add_parser("list", help="list registered suites")
    p_bench_list.set_defaults(func=cmd_bench_list)

    p_info = sub.add_parser("info", parents=[common], help="describe the environment")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
