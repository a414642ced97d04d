"""Global Cache baseline (Thomsen et al. [29], Section V-A2 comparison).

The global cache is *static* and built from a historical query log — the
experiments use the first 20 % of each test set (Section VI-A2).  During
construction every log query is answered; a path enters the cache when the
log query missed (so the cache holds a non-redundant set of log paths).
When a byte budget is given, candidate paths are ranked by *benefit* — the
number of log queries each path can answer as a sub-path, the essence of
[29]'s benefit model — and inserted benefit-first until the budget is full.

At answering time the cache is read-only: hits are sliced out of cached
paths, misses fall back to A* without updating the cache (cache refreshing
belongs to [30] and is out of scope here, as in the paper).

The build keeps the exact answer of every log query it searched
(:attr:`GlobalCacheAnswerer.searched`): the |GC| protocol builds a Global
Cache on the first 20 % of a batch only to size the Local Caches, and
:class:`~repro.core.batch_runner.BatchProcessor` hands those answers to the
Local Cache so its misses on the same pairs are not searched again.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional, Tuple

from ..core.cache import PathCache, path_size_bytes
from ..core.results import BatchAnswer
from ..obs import record_cache
from ..queries.query import Query, QuerySet
from ..search.astar import a_star
from ..search.common import PathResult


logger = logging.getLogger(__name__)


class GlobalCacheAnswerer:
    """Log-built static cache answering the remaining query stream."""

    def __init__(
        self,
        graph,
        capacity_bytes: Optional[int] = None,
        log_fraction: float = 0.2,
    ) -> None:
        self.graph = graph
        self.capacity_bytes = capacity_bytes
        self.log_fraction = log_fraction
        self.cache: Optional[PathCache] = None
        self.build_seconds = 0.0
        self.build_visited = 0
        #: (source, target) -> the exact answer of every log query the
        #: build searched (a log query the staging cache answered is absent).
        self.searched: Dict[Tuple[int, int], PathResult] = {}

    # ------------------------------------------------------------------
    def build(self, log: QuerySet) -> PathCache:
        """Construct the static cache from a historical query log."""
        start = time.perf_counter()
        staging = PathCache(self.graph, capacity_bytes=None)
        paths: List[List[int]] = []
        for q in log:
            if staging.lookup(q.source, q.target) is not None:
                continue
            result = a_star(self.graph, q.source, q.target)
            self.build_visited += result.visited
            self.searched[(q.source, q.target)] = result
            if result.found:
                staging.insert(result.path)
                paths.append(result.path)
        if self.capacity_bytes is None:
            self.cache = staging
        else:
            self.cache = self._benefit_ranked(paths, log)
        self.build_seconds = time.perf_counter() - start
        logger.info(
            "global cache built: %d paths, %d bytes, %.3fs from %d log queries",
            self.cache.num_paths,
            self.cache.size_bytes,
            self.build_seconds,
            len(log),
        )
        return self.cache

    def _benefit_ranked(self, paths: List[List[int]], log: QuerySet) -> PathCache:
        """Keep the most beneficial paths that fit the byte budget."""
        benefit = [0] * len(paths)
        position = []
        for path in paths:
            pos = {}
            for i, v in enumerate(path):
                pos.setdefault(v, i)
            position.append(pos)
        for q in log:
            for idx, pos in enumerate(position):
                ps = pos.get(q.source)
                pt = pos.get(q.target)
                if ps is not None and pt is not None and ps < pt:
                    benefit[idx] += 1
        order = sorted(
            range(len(paths)),
            key=lambda i: (benefit[i], len(paths[i])),
            reverse=True,
        )
        cache = PathCache(self.graph, self.capacity_bytes)
        for idx in order:
            cache.insert(paths[idx])
        return cache

    # ------------------------------------------------------------------
    def answer(self, queries: QuerySet, method: str = "gc") -> BatchAnswer:
        """Answer ``queries`` against the built cache (A* on miss)."""
        if self.cache is None:
            raise RuntimeError("call build() with the query log first")
        cache = self.cache
        batch = BatchAnswer(method=method, num_clusters=1)
        batch.cache_bytes = cache.size_bytes
        # The staging cache also counted the build-phase probes; report
        # only the answering-phase hits and misses.
        hits_before, misses_before = cache.hits, cache.misses
        start = time.perf_counter()
        for q in queries:
            hit = cache.lookup(q.source, q.target)
            if hit is not None:
                batch.answers.append(
                    (
                        q,
                        PathResult(
                            q.source, q.target, hit.distance, hit.path, 0, hit.exact
                        ),
                    )
                )
                continue
            result = a_star(self.graph, q.source, q.target)
            batch.visited += result.visited
            batch.answers.append((q, result))
        batch.cache_hits = cache.hits - hits_before
        batch.cache_misses = cache.misses - misses_before
        record_cache(
            batch.cache_hits,
            batch.cache_misses,
            subpath_hits=cache.subpath_hits,
        )
        batch.answer_seconds = time.perf_counter() - start
        return batch

    @property
    def cache_bytes(self) -> int:
        """|GC| — the byte size of the built cache (Table I's measure)."""
        return self.cache.size_bytes if self.cache is not None else 0


def split_log_and_stream(queries: QuerySet, log_fraction: float = 0.2) -> Tuple[QuerySet, QuerySet]:
    """The paper's protocol: first 20 % builds the cache, the rest is answered."""
    cut = int(len(queries) * log_fraction)
    return queries[:cut], queries[cut:]
