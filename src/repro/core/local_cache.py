"""Local Cache batch answering (Section V-A).

One :class:`~repro.core.cache.PathCache` is created per cloud-shaped query
cluster (from Zigzag or SSE decomposition) and destroyed when the cluster
finishes — each local cache has the same byte budget as the Global Cache,
so the *effective* cache across the batch is ``|Q̂| x |GC|`` without ever
holding more than one cluster's cache in play.

Within a cluster, queries are answered longest-first by default
(observation 2 of Section V-A: long paths enter the cache early and short
queries hit them).  A miss falls back to A* — under the frozen snapshot's
landmark (ALT) bound where one is available, Section IV-B's "Landmark
estimation" — and the resulting path is cached if it fits.  Super-vertex
matching is optional and off by default so results stay exact.

A caller that already holds exact answers for some pairs (``known``: the
|GC| sizing's log searches, see
:class:`~repro.core.batch_runner.BatchProcessor`) can hand them in: a miss
on such a pair takes a copy (``visited=0``) instead of a search.  It is
still a miss, counted and cached exactly as a searched one, so hits, misses
and cache bytes do not move.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError
from ..network.supervertex import SuperVertexMap
from ..obs import get_registry, record_cache, record_sizing_reuse
from ..search.common import PathResult
from ..search.dijkstra import batch_dijkstra, np_batch_active, one_to_many
from ..search.landmarks import landmark_a_star
from .cache import PathCache
from .clusters import Decomposition, QueryCluster
from .results import BatchAnswer

ORDERS = ("longest", "random", "given")

#: Exact answers already searched, keyed by ``(source, target)``.
KnownAnswers = Mapping[Tuple[int, int], PathResult]


def _reused(q, known: Optional[KnownAnswers]) -> Optional[PathResult]:
    """A copy of the known answer for ``q``'s pair (``visited=0``: no
    search ran for it here), or ``None``."""
    done = known.get((q.source, q.target)) if known else None
    if done is None:
        return None
    return PathResult(
        q.source, q.target, done.distance, list(done.path),
        visited=0, exact=done.exact,
    )


class LocalCacheAnswerer:
    """Answer decomposed query sets with per-cluster caches.

    Parameters
    ----------
    graph:
        The road network.
    cache_bytes:
        Byte budget of *each* local cache (the paper sets it to |GC|).
    order:
        ``"longest"`` (SLC-S / ZLC), ``"random"`` (SLC-R) or ``"given"``
        (keep decomposition order).
    super_snap_radius:
        Radius in km for super-vertex matching; 0 disables it (exact).
    seed:
        RNG seed for ``order="random"``.
    eviction:
        Cache eviction policy on overflow: ``"none"`` (the paper's Local
        Cache rejects overflowing inserts), ``"lru"`` or ``"benefit"``
        (the [30] cache-refreshing extension).
    batch_one_to_many:
        Opt-in shared-execution mode: cache misses are grouped by source
        and each group is answered by one ``one_to_many`` sweep (leftover
        singletons go through ``batch_dijkstra`` when the joint numpy
        kernel is active).  Trade-off versus the sequential default: a
        query can no longer hit a path inserted *earlier in the same
        cluster*, in exchange for answering whole groups per sweep.
    """

    def __init__(
        self,
        graph,
        cache_bytes: Optional[int] = None,
        order: str = "longest",
        super_snap_radius: float = 0.0,
        seed: int = 0,
        eviction: str = "none",
        batch_one_to_many: bool = False,
    ) -> None:
        if order not in ORDERS:
            raise ConfigurationError(f"order must be one of {ORDERS}, got {order!r}")
        self.graph = graph
        self.cache_bytes = cache_bytes
        self.order = order
        self.seed = seed
        self.eviction = eviction
        self.batch_one_to_many = batch_one_to_many
        self.super_snap_radius = super_snap_radius
        self.super_map = (
            SuperVertexMap(graph, super_snap_radius) if super_snap_radius > 0 else None
        )

    def spec(self):
        """``(kind, kwargs)`` from which a worker process can rebuild me."""
        return "local-cache", {
            "cache_bytes": self.cache_bytes,
            "order": self.order,
            "super_snap_radius": self.super_snap_radius,
            "seed": self.seed,
            "eviction": self.eviction,
            "batch_one_to_many": self.batch_one_to_many,
        }

    # ------------------------------------------------------------------
    def _ordered(self, cluster: QueryCluster, rng: random.Random) -> List:
        if self.order == "longest":
            return cluster.sorted_longest_first(self.graph).queries
        if self.order == "random":
            queries = list(cluster.queries)
            rng.shuffle(queries)
            return queries
        return list(cluster.queries)

    def answer_cluster(
        self,
        cluster: QueryCluster,
        cache: PathCache,
        rng: Optional[random.Random] = None,
        known: Optional[KnownAnswers] = None,
    ) -> List:
        """Answer one cluster against an existing cache; returns (q, result)
        pairs.  A miss whose pair is in ``known`` reuses that answer."""
        if rng is None:
            rng = random.Random(self.seed)
        if self.batch_one_to_many:
            return self._answer_cluster_batched(cluster, cache, rng, known)
        out = []
        reused = 0
        for q in self._ordered(cluster, rng):
            hit = cache.lookup(q.source, q.target)
            if hit is not None:
                out.append(
                    (
                        q,
                        PathResult(
                            q.source,
                            q.target,
                            hit.distance,
                            hit.path,
                            visited=0,
                            exact=hit.exact,
                        ),
                    )
                )
                continue
            result = _reused(q, known)
            if result is None:
                result = landmark_a_star(self.graph, q.source, q.target)
            else:
                reused += 1
            if result.found:
                cache.insert(result.path)
            out.append((q, result))
        record_sizing_reuse(reused)
        return out

    def _answer_cluster_batched(
        self,
        cluster: QueryCluster,
        cache: PathCache,
        rng: random.Random,
        known: Optional[KnownAnswers],
    ) -> List:
        """Shared-execution cluster answering (``batch_one_to_many=True``).

        Cache misses group by source: groups of two or more targets are
        answered by one ``one_to_many`` sweep each (the sweep's visited
        count is attributed to the group's first query), leftover
        singletons by one joint ``batch_dijkstra`` when the numpy batch
        kernel is active, else per-query A*.  A miss whose pair is in
        ``known`` takes that answer and leaves its group's sweep.  Every
        found path is still inserted, in the same order either way, so
        cache metrics stay comparable.
        """
        ordered = self._ordered(cluster, rng)
        results: List[Optional[PathResult]] = [None] * len(ordered)
        by_source: Dict[int, List[int]] = {}
        reused = 0
        for i, q in enumerate(ordered):
            hit = cache.lookup(q.source, q.target)
            if hit is not None:
                results[i] = PathResult(
                    q.source, q.target, hit.distance, hit.path,
                    visited=0, exact=hit.exact,
                )
            else:
                results[i] = _reused(q, known)
                if results[i] is not None:
                    reused += 1
                by_source.setdefault(q.source, []).append(i)
        singles: List[int] = []
        for source, idxs in by_source.items():
            if len(idxs) == 1:
                singles.append(idxs[0])
                continue
            fresh = [i for i in idxs if results[i] is None]
            if fresh:
                targets = [ordered[i].target for i in fresh]
                found, parents, visited = one_to_many(self.graph, source, targets)
                for j, i in enumerate(fresh):
                    q = ordered[i]
                    distance = found.get(q.target, float("inf"))
                    path: List[int] = []
                    if distance != float("inf"):
                        path = [q.target]
                        v = q.target
                        while v != source:
                            v = parents[v]
                            path.append(v)
                        path.reverse()
                    results[i] = PathResult(
                        q.source, q.target, distance, path,
                        visited=visited if j == 0 else 0,
                    )
            self._insert_found(cache, results, idxs)
        fresh = [i for i in singles if results[i] is None]
        if fresh:
            pairs = [(ordered[i].source, ordered[i].target) for i in fresh]
            if np_batch_active(self.graph, len(pairs)):
                answered = batch_dijkstra(self.graph, pairs)
            else:
                answered = [landmark_a_star(self.graph, s, t) for s, t in pairs]
            for i, result in zip(fresh, answered):
                results[i] = result
        self._insert_found(cache, results, singles)
        record_sizing_reuse(reused)
        out = []
        for q, result in zip(ordered, results):
            assert result is not None
            out.append((q, result))
        return out

    @staticmethod
    def _insert_found(
        cache: PathCache, results: List[Optional[PathResult]], idxs: List[int]
    ) -> None:
        for i in idxs:
            result = results[i]
            assert result is not None
            if result.found:
                cache.insert(result.path)

    def answer(
        self,
        decomposition: Decomposition,
        method: Optional[str] = None,
        known: Optional[KnownAnswers] = None,
    ) -> BatchAnswer:
        """Answer every cluster of ``decomposition`` with a fresh local cache.

        ``known`` maps ``(source, target)`` pairs to exact answers already
        searched; misses on those pairs reuse them (see the module
        docstring)."""
        label = method or f"local-cache[{self.order}]"
        batch = BatchAnswer(
            method=label,
            decompose_seconds=decomposition.elapsed_seconds,
            num_clusters=len(decomposition.clusters),
        )
        start = time.perf_counter()
        rng = random.Random(self.seed)
        with get_registry().span("answer", method=label):
            for cluster in decomposition:
                cache = PathCache(
                    self.graph, self.cache_bytes, self.super_map, eviction=self.eviction
                )
                pairs = self.answer_cluster(cluster, cache, rng, known)
                batch.answers.extend(pairs)
                batch.visited += sum(r.visited for _, r in pairs)
                batch.cache_hits += cache.hits
                batch.cache_misses += cache.misses
                batch.cache_bytes += cache.size_bytes
                if len(cluster) == 1:
                    batch.singleton_queries += 1
                if cache.size_bytes > batch.max_cluster_cache_bytes:
                    batch.max_cluster_cache_bytes = cache.size_bytes
                record_cache(
                    cache.hits,
                    cache.misses,
                    evictions=cache.evictions,
                    rejected_inserts=cache.rejected_inserts,
                    subpath_hits=cache.subpath_hits,
                    bytes_built=cache.size_bytes,
                )
                # The per-cluster cache is conceptually destroyed here;
                # dropping the reference is exactly that.
        batch.answer_seconds = time.perf_counter() - start
        return batch
