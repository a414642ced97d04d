"""Dynamic batch query answering (Section V-A3).

Weights change every epoch ``T``; several query batches arrive within one
epoch.  The first batch of an epoch builds local caches from scratch; later
batches reuse the cache of the most similar earlier cluster — similarity is
the overlap coefficient of the clusters' covered grid cells (for SSE
clusters, additionally requiring a compatible direction) — and only build a
new cache when nothing similar exists.  When the epoch ends (the graph
version changed), every cache is destroyed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..exceptions import ConfigurationError, FaultInjectionError
from ..network.grid import GridIndex
from ..obs import get_registry, record_cache
from ..network.spatial import angular_difference
from ..queries.query import QuerySet
from .cache import PathCache
from .clusters import QueryCluster
from .local_cache import LocalCacheAnswerer
from .results import BatchAnswer
from .search_space import overlap_coefficient

Cell = Tuple[int, int]

logger = logging.getLogger(__name__)


@dataclass
class _LiveCache:
    cache: PathCache
    cells: Set[Cell]
    direction: Optional[float]


class DynamicBatchSession:
    """Answer a stream of batches over a changing road network.

    Parameters
    ----------
    graph:
        The (mutable) road network; ``graph.version`` defines epochs.
    decomposer:
        Any object with ``decompose(QuerySet) -> Decomposition`` (Zigzag or
        SSE decomposers).
    answerer:
        The :class:`LocalCacheAnswerer` used per cluster.
    similarity_threshold:
        Minimum overlap coefficient to reuse an existing cache.
    direction_window:
        Maximum direction difference (degrees) for reuse when both clusters
        carry a direction (SSE clusters); ignored otherwise.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; its ``session``
        faults raise a :class:`FaultInjectionError` at the start of
        :meth:`process_batch` (before any cache mutation), modelling a
        transient snapshot failure the service retry loop can absorb.
    """

    def __init__(
        self,
        graph,
        decomposer,
        answerer: LocalCacheAnswerer,
        similarity_threshold: float = 0.5,
        direction_window: float = 15.0,
        grid: Optional[GridIndex] = None,
        fault_plan=None,
    ) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise ConfigurationError("similarity_threshold must be in (0, 1]")
        self.graph = graph
        self.decomposer = decomposer
        self.answerer = answerer
        self.similarity_threshold = similarity_threshold
        self.direction_window = direction_window
        self.fault_plan = fault_plan
        self._grid = grid if grid is not None else graph.grid_index(5)
        self._caches: List[_LiveCache] = []
        self._epoch_version = graph.version
        self.caches_reused = 0
        self.caches_created = 0
        self.epochs_flushed = 0
        self.faults_raised = 0
        self._batch_counter = 0

    # ------------------------------------------------------------------
    def _cluster_cells(self, cluster: QueryCluster) -> Set[Cell]:
        """Grid footprint of a cluster: its covered cells, else endpoint cells."""
        if cluster.covered_cells:
            return set(cluster.covered_cells)
        cells: Set[Cell] = set()
        for q in cluster.queries:
            cells.add(self._grid.cell_of_vertex(q.source))
            cells.add(self._grid.cell_of_vertex(q.target))
        return cells

    def _find_similar(self, cells: Set[Cell], direction: Optional[float]) -> Optional[_LiveCache]:
        best: Optional[_LiveCache] = None
        best_sim = self.similarity_threshold
        for live in self._caches:
            if (
                direction is not None
                and live.direction is not None
                and angular_difference(direction, live.direction) > self.direction_window
            ):
                continue
            sim = overlap_coefficient(cells, live.cells)
            if sim >= best_sim:
                best = live
                best_sim = sim
        return best

    def _flush_if_new_epoch(self) -> None:
        if self.graph.version != self._epoch_version:
            if self._caches:
                logger.info(
                    "weight epoch changed (version %d -> %d): flushing %d caches",
                    self._epoch_version,
                    self.graph.version,
                    len(self._caches),
                )
            self.flush()

    def flush(self) -> int:
        """Destroy every live cache and re-pin the epoch; returns the count.

        Called automatically when the graph version changes; callers that
        idle a session for a long time (the streaming service between
        traffic bursts) can also flush explicitly to release cache memory
        without waiting for the next epoch.
        """
        flushed = len(self._caches)
        if flushed:
            self.epochs_flushed += 1
        self._caches.clear()
        self._epoch_version = self.graph.version
        return flushed

    # ------------------------------------------------------------------
    def process_batch(self, queries: QuerySet, attempt: int = 1) -> BatchAnswer:
        """Decompose and answer one arriving batch, reusing live caches.

        ``attempt`` is the caller's retry counter for *this* batch; the
        fault plan keys on it so injected transient failures clear on
        retry.  Same-batch retries share one batch index, so the service
        retry loop deterministically converges.
        """
        if attempt == 1:
            self._batch_counter += 1
        batch_index = self._batch_counter - 1
        if self.fault_plan is not None and self.fault_plan.session_fault(
            batch_index, attempt
        ):
            # Before any cache mutation, so a retried batch starts clean.
            self.faults_raised += 1
            raise FaultInjectionError(
                f"injected transient session failure (batch {batch_index}, "
                f"attempt {attempt})"
            )
        self._flush_if_new_epoch()
        decomposition = self.decomposer.decompose(queries)
        batch = BatchAnswer(
            method=f"dynamic[{self.answerer.order}]",
            decompose_seconds=decomposition.elapsed_seconds,
            num_clusters=len(decomposition.clusters),
        )
        start = time.perf_counter()
        reg = get_registry()
        with reg.span("answer", method=batch.method):
            for cluster in decomposition:
                cells = self._cluster_cells(cluster)
                live = self._find_similar(cells, cluster.direction)
                if live is None:
                    live = _LiveCache(
                        cache=PathCache(
                            self.graph,
                            self.answerer.cache_bytes,
                            self.answerer.super_map,
                            eviction=self.answerer.eviction,
                        ),
                        cells=cells,
                        direction=cluster.direction,
                    )
                    self._caches.append(live)
                    self.caches_created += 1
                else:
                    self.caches_reused += 1
                    live.cells |= cells
                cache = live.cache
                before_hits = cache.hits
                before_misses = cache.misses
                before_evictions = cache.evictions
                before_rejected = cache.rejected_inserts
                before_subpath = cache.subpath_hits
                before_bytes = cache.size_bytes
                pairs = self.answerer.answer_cluster(cluster, cache)
                batch.answers.extend(pairs)
                batch.visited += sum(r.visited for _, r in pairs)
                batch.cache_hits += cache.hits - before_hits
                batch.cache_misses += cache.misses - before_misses
                if len(cluster) == 1:
                    batch.singleton_queries += 1
                record_cache(
                    cache.hits - before_hits,
                    cache.misses - before_misses,
                    evictions=cache.evictions - before_evictions,
                    rejected_inserts=cache.rejected_inserts - before_rejected,
                    subpath_hits=cache.subpath_hits - before_subpath,
                    bytes_built=max(0, cache.size_bytes - before_bytes),
                )
        if reg.enabled:
            # Session-lifetime totals, so gauges (set, not add): re-publishing
            # after every batch keeps them current without double counting.
            reg.gauge("dynamic.live_caches").set(len(self._caches))
            reg.gauge("dynamic.caches_reused").set(self.caches_reused)
            reg.gauge("dynamic.caches_created").set(self.caches_created)
        batch.cache_bytes = sum(c.cache.size_bytes for c in self._caches)
        batch.answer_seconds = time.perf_counter() - start
        return batch

    @property
    def live_cache_count(self) -> int:
        return len(self._caches)
