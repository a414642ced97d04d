"""The four named workloads and how their inputs are drawn from ``--seed``.

The road map of a workload is fixed (``beijing_like(scale)`` with its
default seed, hotspots at fixed places on it): it is the data set, and
re-drawing it per seed moved capacity by a third between seeds.  The seed
draws the *queries* — endpoints, arrival gaps, Zipf picks — and the traffic
timeline's perturbations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import (
    Hotspot,
    PoissonArrivals,
    QuerySet,
    RoadNetwork,
    TrafficTimeline,
    WorkloadGenerator,
    beijing_like,
)
from repro.network.timeline import congestion_snapshot, recovery_snapshot
from repro.queries.arrivals import TimedQuery
from repro.queries.query import Query
from repro.queries.workload import band_for_network


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    kind: str  # "serve" | "offline"
    scale: str
    #: Share of endpoints drawn from the four fixed hotspots, and their
    #: spread as a share of the map's extent.
    hotspot_fraction: float
    hotspot_sigma: float
    #: Euclidean trip length, as shares of the map's extent.  A band keeps
    #: the cost of a query, and so the work one seed draws, nearly constant.
    band: Tuple[float, float]
    #: Paced (open-loop, real clock) arrival rates; both below seed capacity.
    low_qps: float
    high_qps: float
    #: One capacity replay: this many queries, stamped at this rate.
    capacity_queries: int
    capacity_stamp_qps: float
    #: A paced answer later than this from its stamp misses the SLO.
    slo_ms: float = 1000.0
    index: str = "none"
    #: Stream seconds between traffic epochs (0 = static weights).
    epoch_seconds: float = 0.0
    #: Replay a pool of this many OD pairs with Zipf(1.1) weights (0 = fresh draws).
    pool: int = 0
    #: offline only: R2R-band batch size and its tighter hotspots.
    r2r_queries: int = 0
    r2r_sigma: float = 0.0

    def quick(self) -> "Spec":
        """A seconds-long size for the self-tests; never used for a claim."""
        return replace(
            self,
            scale="medium",
            capacity_queries=self.capacity_queries // 3,
            capacity_stamp_qps=self.capacity_stamp_qps / 3.0,
            r2r_queries=self.r2r_queries // 3,
            pool=self.pool // 3,
        )


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="offline_batch",
            why="The paper's setting: hotspot batches through slc-s, zlc and "
                "r2r-s; decomposers, Local Cache/R2R and search do all the "
                "work, the serving tier none.",
            kind="offline", scale="xlarge",
            hotspot_fraction=0.97, hotspot_sigma=0.004, band=(0.12, 50.0 / 184.0),
            low_qps=170.0, high_qps=300.0,
            capacity_queries=400, capacity_stamp_qps=0.0,
            slo_ms=2000.0, r2r_queries=120, r2r_sigma=0.002,
        ),
        Spec(
            name="serve_kernel",
            why="Uniform endpoints share nothing: 88 % of capacity wall is "
                "csr_a_star, caches and the window are bypassed, so kernel work "
                "shows here and cache or window work does not.",
            kind="serve", scale="large",
            hotspot_fraction=0.0, hotspot_sigma=0.03, band=(0.2, 0.45),
            low_qps=200.0, high_qps=350.0,
            capacity_queries=600, capacity_stamp_qps=450.0,
        ),
        Spec(
            name="serve_cache_hot",
            why="A Zipf-replayed pool of hotspot trips hits the stream cache "
                "99 %: admission, micro-batcher and cache are two thirds of the "
                "cost, latency is window wait; a kernel change must not move it.",
            kind="serve", scale="large",
            hotspot_fraction=1.0, hotspot_sigma=0.01, band=(0.12, 50.0 / 184.0),
            low_qps=400.0, high_qps=1500.0,
            capacity_queries=25000, capacity_stamp_qps=1500.0,
            pool=150,
        ),
        Spec(
            name="serve_cch_epochs",
            why="index=cch with congestion/recovery epochs every 2 s of "
                "stream time: CCH queries beside re-customization and cache "
                "invalidation; a faster query bought with a slower customize "
                "or order build shows here.",
            kind="serve", scale="large",
            hotspot_fraction=0.3, hotspot_sigma=0.03, band=(0.15, 0.45),
            low_qps=250.0, high_qps=400.0,
            # 9 s of stamped stream = 4 epochs per replay.
            capacity_queries=540, capacity_stamp_qps=60.0,
            index="cch", epoch_seconds=2.0,
        ),
    )
}


def make_graph(spec: Spec) -> RoadNetwork:
    return beijing_like(spec.scale)


def make_timeline(graph: RoadNetwork, spec: Spec, seed: int) -> Optional[TrafficTimeline]:
    """Congestion on odd epochs, recovery on even ones, for a minute of stream."""
    if not spec.epoch_seconds:
        return None
    timeline = TrafficTimeline(graph, seed=seed)
    for k in range(1, int(60.0 / spec.epoch_seconds) + 1):
        snapshot = congestion_snapshot(0.1) if k % 2 else recovery_snapshot()
        timeline.schedule(k * spec.epoch_seconds, snapshot)
    return timeline


def _hotspots(graph: RoadNetwork, sigma: float) -> List[Hotspot]:
    """Four hotspots on a square around the centre, 0.22 of the extent apart:
    neighbours fall in the cache band, diagonals in the R2R band."""
    min_x, min_y, max_x, max_y = graph.extent()
    span = max(max_x - min_x, max_y - min_y)
    cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    half = 0.11 * span
    return [
        Hotspot(cx + dx * half, cy + dy * half, sigma * span)
        for dx in (-1, 1)
        for dy in (-1, 1)
    ]


class Workload:
    """One workload's generated inputs (the program never sees the seed)."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: Never frozen: the oracle answers on it with dict-graph Dijkstra.
        self.oracle_graph = make_graph(spec)
        self._draws = 0
        min_x, min_y, max_x, max_y = self.oracle_graph.extent()
        span = max(max_x - min_x, max_y - min_y)
        self._band = (spec.band[0] * span, spec.band[1] * span)
        self._pool: List[Query] = []
        if spec.kind == "offline":
            self.cache_queries = self._generator(spec.hotspot_sigma).batch(
                spec.capacity_queries, *self._band
            )
            self.r2r_queries = self._generator(spec.r2r_sigma).batch(
                spec.r2r_queries, *band_for_network(self.oracle_graph, "r2r")
            )
        else:
            if spec.pool:
                self._pool = list(
                    self._generator(spec.hotspot_sigma).batch(spec.pool, *self._band)
                )
            self.capacity_stream = self._stream(
                spec.capacity_stamp_qps, count=spec.capacity_queries
            )

    def _next_seed(self) -> int:
        """A fresh sub-seed per draw, so no two phases replay the same queries."""
        self._draws += 1
        return self.seed * 1000 + self._draws

    def _generator(self, sigma: float, seed: Optional[int] = None) -> WorkloadGenerator:
        return WorkloadGenerator(
            self.oracle_graph,
            hotspots=_hotspots(self.oracle_graph, sigma),
            hotspot_fraction=self.spec.hotspot_fraction,
            seed=self._next_seed() if seed is None else seed,
        )

    def _stream(self, rate: float, count: int) -> List[TimedQuery]:
        """``count`` Poisson-stamped arrivals at ``rate``: fresh trips, or
        Zipf(1.1) picks from the pool when the workload has one."""
        seed = self._next_seed()
        if not self._pool:
            return PoissonArrivals(
                self._generator(self.spec.hotspot_sigma, seed), rate, seed=seed,
                min_dist=self._band[0], max_dist=self._band[1],
            ).take(count)
        rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(self._pool))]
        clock = 0.0
        out: List[TimedQuery] = []
        for query in rng.choices(self._pool, weights=weights, k=count):
            clock += rng.expovariate(rate)
            out.append(TimedQuery(clock, query))
        return out

    def paced_stream(self, rate: float, seconds: float) -> List[TimedQuery]:
        """Arrivals of the first ``seconds`` of a Poisson process at ``rate``."""
        drawn = self._stream(rate, count=int(rate * seconds * 1.2) + 50)
        return [tq for tq in drawn if tq.arrival < seconds]

    def sample_queries(self, count: int) -> QuerySet:
        """A seeded sample of this workload's own queries, for the probes."""
        if self.spec.kind == "offline":
            population = list(self.cache_queries) + list(self.r2r_queries)
        else:
            population = [tq.query for tq in self.capacity_stream]
        rng = random.Random(self.seed)
        return QuerySet(rng.sample(population, min(count, len(population))))
