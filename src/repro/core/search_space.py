"""Search-Space Estimation decomposition (Section IV-B).

Location alone is only a proxy for coherence — what actually determines how
much computation two queries share is their *search space*.  For the
generalized A* the search space is (approximately) an ellipse with the
source at one focus, whose flatness depends on the angle theta between the
query direction and the underlying road directions (Figure 2):

* the second focus sits at distance ``2 h cos(theta) / (1 + cos(theta))``
  from the source toward the target, and
* the ellipse's constant distance sum is ``2 h / (1 + cos(theta))``,

with ``h`` the Euclidean query length (Eqs. 4-5).  Road directions are
summarised per cell by the :class:`~repro.network.grid.GridIndex` (Eq. 2-3)
so estimating a query's search space costs a handful of grid lookups.

The decomposition processes queries longest-first (larger spaces are more
likely to cover shorter queries), builds one cluster per seed query from
every unassigned query whose endpoints both fall inside the covered cells
and whose direction deviates less than delta/2, and finally merges clusters
within a directional sliding window of delta/8 when their covered-cell
overlap coefficient (Eq. 6) exceeds a threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ConfigurationError
from ..network.grid import GridIndex, auto_levels
from ..obs import get_registry, record_decomposition
from ..network.spatial import (
    Ellipse,
    angular_difference,
    bearing_angle,
    fold_theta,
    reference_angle,
    search_space_ellipse,
)
from ..queries.query import Query, QuerySet
from .clusters import Decomposition, QueryCluster
from .zigzag import DEFAULT_DELTA

Cell = Tuple[int, int]


@dataclass
class SearchSpaceEstimate:
    """The estimated search space of one query."""

    query: Query
    theta: float  # offset from road directions, [0, 45] degrees
    bearing: float  # full-circle query direction, [0, 360)
    ellipse: Ellipse
    covered_cells: Set[Cell]


class SearchSpaceOracle:
    """Near-constant-time search-space estimation over a grid index."""

    def __init__(
        self, graph, grid: Optional[GridIndex] = None, levels: Optional[int] = None
    ) -> None:
        self.graph = graph
        if grid is None:
            grid = graph.grid_index(levels if levels is not None else auto_levels(graph))
        self.grid = grid

    def estimate(self, query: Query) -> SearchSpaceEstimate:
        """Estimate the ellipse and covered grid cells for ``query``."""
        graph = self.graph
        sx, sy = graph.coord(query.source)
        tx, ty = graph.coord(query.target)
        traversed = self.grid.traversed_cells(sx, sy, tx, ty)
        road_theta = self.grid.direction_of_cells(traversed)
        query_theta = reference_angle(tx - sx, ty - sy)
        theta = fold_theta(abs(query_theta - road_theta))
        ellipse = search_space_ellipse(sx, sy, tx, ty, theta)
        covered = self.grid.covered_cells(ellipse, extra=traversed)
        return SearchSpaceEstimate(
            query=query,
            theta=theta,
            bearing=bearing_angle(tx - sx, ty - sy),
            ellipse=ellipse,
            covered_cells=covered,
        )


def overlap_coefficient(a: Set[Cell], b: Set[Cell]) -> float:
    """Szymkiewicz-Simpson overlap of two cell sets (Eq. 6)."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


class SearchSpaceDecomposer:
    """Generation + merge phases of the SSE decomposition.

    Parameters
    ----------
    graph:
        The road network.
    delta:
        Direction tolerance in degrees: members must deviate from their
        cluster seed by less than ``delta / 2``; the merge window is
        ``delta / 8`` (paper Section IV-B3).
    merge_threshold:
        Minimum overlap coefficient for two clusters to merge.
    grid:
        Optional :class:`GridIndex`; by default the graph's shared grid of
        its current version (:meth:`RoadNetwork.grid_index`), kept for the
        decomposer's lifetime.
    """

    method = "search-space"

    def __init__(
        self,
        graph,
        delta: float = DEFAULT_DELTA,
        merge_threshold: float = 0.5,
        grid: Optional[GridIndex] = None,
        levels: Optional[int] = None,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        if not 0.0 < merge_threshold <= 1.0:
            raise ConfigurationError("merge_threshold must be in (0, 1]")
        self.graph = graph
        self.delta = delta
        self.merge_threshold = merge_threshold
        self.oracle = SearchSpaceOracle(graph, grid=grid, levels=levels)

    # ------------------------------------------------------------------
    def decompose(self, queries: QuerySet) -> Decomposition:
        start = time.perf_counter()
        with get_registry().span("decompose", method=self.method, queries=len(queries)):
            distinct = queries.deduplicated()
            clusters = self._generate(distinct)
            clusters = self._merge(clusters)
            clusters = self._restore_multiplicity(queries, clusters)
        elapsed = time.perf_counter() - start
        decomposition = Decomposition(clusters, self.method, elapsed).validate(queries)
        record_decomposition(decomposition)
        return decomposition

    # ------------------------------------------------------------------
    # Generation phase
    # ------------------------------------------------------------------
    def _generate(self, queries: QuerySet) -> List[QueryCluster]:
        graph = self.graph
        grid = self.oracle.grid
        order = sorted(
            queries,
            key=lambda q: graph.euclidean(q.source, q.target),
            reverse=True,
        )
        # Spatial index of pending queries by their source cell.
        by_source_cell: Dict[Cell, List[int]] = {}
        source_cell: List[Cell] = []
        target_cell: List[Cell] = []
        bearings: List[float] = []
        for idx, q in enumerate(order):
            sc = grid.cell_of_vertex(q.source)
            tc = grid.cell_of_vertex(q.target)
            source_cell.append(sc)
            target_cell.append(tc)
            sx, sy = graph.coord(q.source)
            tx, ty = graph.coord(q.target)
            bearings.append(bearing_angle(tx - sx, ty - sy))
            by_source_cell.setdefault(sc, []).append(idx)

        assigned = [False] * len(order)
        clusters: List[QueryCluster] = []
        half = self.delta / 2.0
        for idx, seed in enumerate(order):
            if assigned[idx]:
                continue
            estimate = self.oracle.estimate(seed)
            cluster = QueryCluster(
                kind="cloud",
                direction=estimate.bearing,
                covered_cells=set(estimate.covered_cells),
                center=seed,
            )
            cluster.add(seed)
            assigned[idx] = True
            for cell in estimate.covered_cells:
                for cand in by_source_cell.get(cell, ()):  # source inside space
                    if assigned[cand]:
                        continue
                    if target_cell[cand] not in estimate.covered_cells:
                        continue
                    if angular_difference(bearings[cand], estimate.bearing) > half:
                        continue
                    assigned[cand] = True
                    cluster.add(order[cand])
            clusters.append(cluster)
        return clusters

    # ------------------------------------------------------------------
    # Merge phase
    # ------------------------------------------------------------------
    def _merge(self, clusters: List[QueryCluster]) -> List[QueryCluster]:
        window = self.delta / 8.0
        ordered = sorted(clusters, key=lambda c: c.direction or 0.0)
        merged: List[QueryCluster] = []
        for cluster in ordered:
            host = None
            # Scan recent clusters inside the directional window; the list
            # is direction-sorted so the window is a suffix.
            for prev in reversed(merged):
                if angular_difference(prev.direction or 0.0, cluster.direction or 0.0) > window:
                    break
                if (
                    overlap_coefficient(prev.covered_cells, cluster.covered_cells)
                    >= self.merge_threshold
                ):
                    host = prev
                    break
            if host is None:
                merged.append(cluster)
                continue
            total = len(host) + len(cluster)
            host.direction = (
                (len(host) * (host.direction or 0.0) + len(cluster) * (cluster.direction or 0.0))
                / total
            )
            host.covered_cells |= cluster.covered_cells
            host.queries.extend(cluster.queries)
        return merged

    # ------------------------------------------------------------------
    @staticmethod
    def _restore_multiplicity(
        original: QuerySet, clusters: List[QueryCluster]
    ) -> List[QueryCluster]:
        counts: Dict[Query, int] = {}
        for q in original:
            counts[q] = counts.get(q, 0) + 1
        for cluster in clusters:
            extras: List[Query] = []
            for q in cluster.queries:
                for _ in range(counts.get(q, 1) - 1):
                    extras.append(q)
            cluster.queries.extend(extras)
        return clusters
