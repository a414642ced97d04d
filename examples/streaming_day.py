#!/usr/bin/env python3
"""A simulated service day through the online streaming front door.

Puts the whole stack together the way a deployment would run it:

* queries arrive as a Poisson stream (Definition 1's "issued within a
  short time period" becomes literal micro-batch windows),
* a :class:`TrafficTimeline` replays congestion snapshots — morning rush,
  a midday incident, evening recovery — and every snapshot invalidates
  the cross-window path cache by bumping the graph version,
* :class:`StreamingQueryService` assembles micro-batch windows under the
  dual duration/size trigger, admission-controls the queue, serves
  repeat queries from the version-keyed cross-window cache, and hands
  the misses to the batch backend (a :class:`DynamicBatchSession` with
  per-cluster local caches at ``workers=1``).

The whole day runs on the simulated clock, so the run is a deterministic
replay: same stream, same scheduling decisions, same windows, every time.

Run:  python examples/streaming_day.py
"""

from repro import (
    PoissonArrivals,
    StreamingQueryService,
    TrafficTimeline,
    WorkloadGenerator,
    beijing_like,
)
from repro.network.timeline import (
    congestion_snapshot,
    incident_snapshot,
    recovery_snapshot,
)
from repro.queries.arrivals import stream_statistics
from repro.search.dijkstra import dijkstra


def main() -> None:
    graph = beijing_like("small", seed=12).copy()
    workload = WorkloadGenerator(graph, seed=77, hotspot_fraction=0.85, num_hotspots=6)

    # One simulated "day" compressed to 12 seconds of stream time.
    process = PoissonArrivals(workload, rate=150.0, seed=5)
    arrivals = process.duration(12.0)
    stats = stream_statistics(arrivals)
    print(
        f"stream: {stats['count']} queries over {stats['duration']:.1f}s "
        f"(rate {stats['rate']:.0f}/s, burstiness cv {stats['cv']:.2f})"
    )

    timeline = TrafficTimeline(graph, seed=3)
    timeline.schedule(3.0, congestion_snapshot(0.25, 1.5, 2.5), "morning rush")
    timeline.schedule(7.0, incident_snapshot(radius=8.0, factor=4.0), "incident")
    timeline.schedule(10.0, recovery_snapshot(), "traffic clears")

    with StreamingQueryService(
        graph,
        window_seconds=0.25,
        max_batch=48,
        workers=1,                       # dynamic session backend
        clock="simulated",
        timeline=timeline,
        stream_cache_bytes=512 * 1024,
    ) as service:
        report = service.run(arrivals)

    events = {round(at, 3): label for at, label, _ in timeline.applied}
    print(f"\n{'cut(s)':>7} | {'size':>4} | {'trig':<9} | {'hits':>4} | {'event':<14}")
    print("-" * 53)
    for w in report.windows:
        # A timeline event fires when a window cut advances past its stamp
        # (or an arrival does, while no window is pending).
        label = ""
        if w.timeline_events:
            label = next(
                (lbl for at, lbl in sorted(events.items()) if at <= w.cut_at),
                "",
            )
            for at in [a for a in events if a <= w.cut_at]:
                label = events.pop(at)
        print(
            f"{w.cut_at:>7.2f} | {w.queries:>4} | {w.trigger:<9} | "
            f"{w.cache_hits:>4} | {label:<14}"
        )

    print("-" * 53)
    print(
        f"records={len(report.windows)} {report.windows_by_trigger}, "
        f"answered={report.answered_queries}/{report.total_arrivals}, "
        f"dead-lettered={len(report.dead_letters)}"
    )
    print(
        f"stream cache: {report.stream_cache_hits} hits, "
        f"{report.stream_cache_misses} misses, "
        f"{report.stream_cache_invalidations} invalidations (one per snapshot)"
    )
    print(
        f"latency: p50 {report.p50_latency * 1000:.0f} ms, "
        f"p99 {report.p99_latency * 1000:.0f} ms; "
        f"throughput {report.qps:.0f} qps"
    )

    # Every answer is exact against the snapshot in force when its window
    # ran; after the last event the graph no longer changes, so the tail
    # of the day can be re-checked against the final state directly.
    checked = 0
    for q, r in report.answers[-25:]:
        truth = dijkstra(graph, q.source, q.target).distance
        assert abs(r.distance - truth) < 1e-9, (q, r.distance, truth)
        checked += 1
    print(f"Spot-checked {checked} end-of-day answers exact against the "
          "final snapshot.")


if __name__ == "__main__":
    main()
