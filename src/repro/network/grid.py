"""The adaptive multi-level grid index of Section IV-B1.

The road network is split into ``2^n x 2^n`` equal grids over its bounding
square.  Each finest-level cell stores

* ``n``      — the number of vertices inside it,
* ``theta``  — the weighted average road direction (Eq. 2), and
* ``weight`` — the total edge weight assigned to it,

and coarser levels aggregate their four children (quad-tree style), so a
regional direction summary (Eq. 3) is a constant number of lookups.  The
index also supports the geometric primitives the Search-Space Estimation
decomposition needs: mapping points to cells, listing the cells a query
segment traverses, and finding the cells covered by a search-space ellipse
(a cell counts as covered when at least two of its corners fall inside the
ellipse, plus the traversed cells themselves — Section IV-B2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

try:  # numpy is an optional extra; the ellipse cover has a scalar fallback
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    np = None  # type: ignore[assignment]

from ..exceptions import ConfigurationError
from .spatial import Ellipse, segment_cells

Cell = Tuple[int, int]


@dataclass
class CellSummary:
    """Per-cell aggregates: vertex count, direction, edge-weight mass."""

    n: int = 0
    weight: float = 0.0
    _direction_mass: float = 0.0  # sum of w(e) * e.theta
    vertices: List[int] = field(default_factory=list)

    @property
    def theta(self) -> float:
        """Weighted average road direction in [0, 45] degrees (Eq. 2)."""
        if self.weight <= 0.0:
            return 0.0
        return self._direction_mass / self.weight


def auto_levels(graph, target_vertices_per_cell: float = 4.0) -> int:
    """Pick the grid depth adaptively from the vertex count.

    The paper's grid is "adaptive multi-level": the useful finest level
    keeps a handful of vertices per non-empty cell — fine enough that
    direction summaries are local, coarse enough that ellipse coverage
    stays cheap.  Solving ``4^levels * target = |V|`` and clamping to the
    supported range gives the depth.
    """
    import math as _math

    if target_vertices_per_cell <= 0:
        raise ConfigurationError("target_vertices_per_cell must be positive")
    n = max(graph.num_vertices, 1)
    levels = int(round(_math.log(n / target_vertices_per_cell, 4))) if n > target_vertices_per_cell else 1
    return max(1, min(8, levels))


def _first_seen(keys):
    """Distinct ``keys`` in order of first appearance, and each key's rank in it."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inverse.ravel()]


class GridIndex:
    """Uniform ``2^levels x 2^levels`` grid with quad-tree level summaries."""

    def __init__(self, graph, levels: int = 5, pad: float = 1e-6) -> None:
        if levels < 1 or levels > 12:
            raise ConfigurationError("levels must be in [1, 12]")
        if graph.num_vertices == 0:
            raise ConfigurationError("cannot index an empty network")
        self.graph = graph
        self.levels = levels
        self.cells_per_side = 1 << levels
        min_x, min_y, max_x, max_y = graph.extent()
        side = max(max_x - min_x, max_y - min_y) + pad
        if side <= 0:
            side = pad
        self.origin = (min_x, min_y)
        self.side = side
        self.cell_size = side / self.cells_per_side
        self._cells: Dict[Cell, CellSummary] = {}
        # Coarser summaries: _level_cells[l][(i, j)] for l in 0..levels.
        self._level_cells: List[Dict[Cell, CellSummary]] = [
            {} for _ in range(levels + 1)
        ]
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        # Imported here: repro.search imports repro.network at module scope.
        from ..search.np_kernels import kernel_backend

        if np is not None and kernel_backend() != "csr":
            self._build_np()
        else:
            self._build_scalar()

    def _build_np(self) -> None:
        """One vectorised pass over flat arrays, bit-identical to the scalar build.

        Cells come from the same subtract/divide/truncate/clamp arithmetic as
        :meth:`cell_of_point`; per-cell sums are ``np.bincount`` in edge
        order, which accumulates in the scalar loop's sequence; cells keep
        their first-seen order (vertices, then edges), so the coarse levels
        also sum their children in the scalar order.  Edge directions stay
        on ``math.atan2``/``math.degrees``: numpy's vectorised ``arctan2``
        can differ from libm in the last bit.
        """
        graph = self.graph
        frozen = graph.frozen_or_none()
        if frozen is not None:
            xs = np.frombuffer(frozen.xs, dtype=np.float64)
            ys = np.frombuffer(frozen.ys, dtype=np.float64)
            indptr = np.frombuffer(frozen.findptr, dtype=np.int32)
            heads = np.frombuffer(frozen.ftarget, dtype=np.int32)
            weights = np.frombuffer(frozen.fweight, dtype=np.float64)
        else:
            rows = graph._adj  # noqa: SLF001 - same order as graph.edges()
            xs = np.asarray(graph.xs, dtype=np.float64)
            ys = np.asarray(graph.ys, dtype=np.float64)
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(row) for row in rows], out=indptr[1:])
            pairs = np.array(list(chain.from_iterable(rows)), dtype=np.float64)
            pairs = pairs.reshape(-1, 2)
            heads = pairs[:, 0].astype(np.int64)
            weights = pairs[:, 1]
        tails = np.repeat(np.arange(xs.size), np.diff(indptr))
        # Iterating the buffers yields one Python float at a time, so no
        # edge-sized lists of floats are held while the angles are taken.
        dx = np.abs(xs[heads] - xs[tails]).data
        dy = np.abs(ys[heads] - ys[tails]).data
        theta = np.fromiter(
            map(math.degrees, map(math.atan2, dy, dx)), dtype=np.float64, count=len(dx)
        )
        theta = np.minimum(theta, 90.0 - theta)  # reference_angle's fold

        side = self.cells_per_side
        vkeys = self._cell_keys(xs, ys)
        ekeys = self._cell_keys((xs[tails] + xs[heads]) / 2.0, (ys[tails] + ys[heads]) / 2.0)
        keys, slot = _first_seen(np.concatenate([vkeys, ekeys]))
        k = keys.size
        vslot, eslot = slot[: xs.size], slot[xs.size :]
        counts = np.bincount(vslot, minlength=k)
        # An empty weights array makes bincount return integers.
        weight = np.bincount(eslot, weights=weights, minlength=k).astype(np.float64)
        mass = np.bincount(eslot, weights=weights * theta, minlength=k).astype(np.float64)
        members = np.argsort(vslot, kind="stable").tolist()
        ends = np.cumsum(counts).tolist()
        starts = [0] + ends[:-1]
        ii, jj = keys // side, keys % side
        self._cells = {
            cell: CellSummary(n, w, dm, members[a:b])
            for cell, n, w, dm, a, b in zip(
                zip(ii.tolist(), jj.tolist()),
                counts.tolist(),
                weight.tolist(),
                mass.tolist(),
                starts,
                ends,
            )
        }
        self._level_cells[self.levels] = self._cells
        for level in range(self.levels - 1, -1, -1):
            keys, slot = _first_seen((ii >> 1) * (1 << level) + (jj >> 1))
            k = keys.size
            counts = np.bincount(slot, weights=counts, minlength=k).astype(np.int64)
            weight = np.bincount(slot, weights=weight, minlength=k)
            mass = np.bincount(slot, weights=mass, minlength=k)
            ii, jj = keys >> level, keys & ((1 << level) - 1)
            self._level_cells[level] = {
                cell: CellSummary(n, w, dm)
                for cell, n, w, dm in zip(
                    zip(ii.tolist(), jj.tolist()),
                    counts.tolist(),
                    weight.tolist(),
                    mass.tolist(),
                )
            }

    def _cell_keys(self, px, py):
        """``i * cells_per_side + j`` of each point's cell, as :meth:`cell_of_point`."""
        last = self.cells_per_side - 1
        i = np.clip(((px - self.origin[0]) / self.cell_size).astype(np.int64), 0, last)
        j = np.clip(((py - self.origin[1]) / self.cell_size).astype(np.int64), 0, last)
        return i * self.cells_per_side + j

    def _build_scalar(self) -> None:
        graph = self.graph
        for v in range(graph.num_vertices):
            cell = self.cell_of_point(graph.xs[v], graph.ys[v])
            summary = self._cells.setdefault(cell, CellSummary())
            summary.n += 1
            summary.vertices.append(v)
        for u, v, w in graph.edges():
            # An edge contributes its direction to the cell of its midpoint.
            mx = (graph.xs[u] + graph.xs[v]) / 2.0
            my = (graph.ys[u] + graph.ys[v]) / 2.0
            cell = self.cell_of_point(mx, my)
            summary = self._cells.setdefault(cell, CellSummary())
            summary.weight += w
            summary._direction_mass += w * graph.edge_direction(u, v)
        # Aggregate upward: level `levels` is the finest.
        self._level_cells[self.levels] = self._cells
        for level in range(self.levels - 1, -1, -1):
            coarse: Dict[Cell, CellSummary] = {}
            for (i, j), child in self._level_cells[level + 1].items():
                key = (i >> 1, j >> 1)
                agg = coarse.setdefault(key, CellSummary())
                agg.n += child.n
                agg.weight += child.weight
                agg._direction_mass += child._direction_mass
            self._level_cells[level] = coarse

    # ------------------------------------------------------------------
    # Point / cell geometry
    # ------------------------------------------------------------------
    def cell_of_point(self, x: float, y: float) -> Cell:
        """Finest-level cell containing ``(x, y)``, clamped to the grid."""
        i = int((x - self.origin[0]) / self.cell_size)
        j = int((y - self.origin[1]) / self.cell_size)
        last = self.cells_per_side - 1
        return (max(0, min(last, i)), max(0, min(last, j)))

    def cell_of_vertex(self, v: int) -> Cell:
        return self.cell_of_point(self.graph.xs[v], self.graph.ys[v])

    def cell_corners(self, cell: Cell) -> List[Tuple[float, float]]:
        i, j = cell
        x0 = self.origin[0] + i * self.cell_size
        y0 = self.origin[1] + j * self.cell_size
        x1 = x0 + self.cell_size
        y1 = y0 + self.cell_size
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    def cell_center(self, cell: Cell) -> Tuple[float, float]:
        i, j = cell
        return (
            self.origin[0] + (i + 0.5) * self.cell_size,
            self.origin[1] + (j + 0.5) * self.cell_size,
        )

    def vertices_in_cell(self, cell: Cell) -> List[int]:
        summary = self._cells.get(cell)
        return summary.vertices if summary else []

    def summary(self, cell: Cell, level: Optional[int] = None) -> CellSummary:
        """The :class:`CellSummary` of ``cell`` at ``level`` (default finest)."""
        lvl = self.levels if level is None else level
        if not 0 <= lvl <= self.levels:
            raise ConfigurationError(f"level {lvl} out of range [0, {self.levels}]")
        return self._level_cells[lvl].get(cell, CellSummary())

    # ------------------------------------------------------------------
    # Direction summarisation (Eqs. 2-3)
    # ------------------------------------------------------------------
    def direction_of_cells(self, cells: Iterable[Cell]) -> float:
        """Weighted average direction of a cell set, in [0, 45] (Eq. 3)."""
        mass = 0.0
        weight = 0.0
        for cell in cells:
            summary = self._cells.get(cell)
            if summary is None:
                continue
            mass += summary._direction_mass
            weight += summary.weight
        if weight <= 0.0:
            return 0.0
        return mass / weight

    # ------------------------------------------------------------------
    # Query-segment and ellipse coverage
    # ------------------------------------------------------------------
    def traversed_cells(self, sx: float, sy: float, tx: float, ty: float) -> List[Cell]:
        """Cells crossed by the straight segment from ``s`` to ``t``."""
        return segment_cells(
            sx, sy, tx, ty, self.origin, self.cell_size, self.cells_per_side
        )

    def covered_cells(self, ellipse: Ellipse, extra: Iterable[Cell] = ()) -> Set[Cell]:
        """Cells covered by a search-space ellipse (Section IV-B2).

        A cell is covered when at least two of its corners lie inside the
        ellipse.  ``extra`` cells (the traversed cells that defined the
        angle) are always included.  Only cells within the ellipse's
        bounding box are examined; corner membership is evaluated for the
        whole sub-grid at once with numpy.
        """
        covered: Set[Cell] = set(extra)
        min_x, min_y, max_x, max_y = ellipse.bounding_box()
        lo = self.cell_of_point(min_x, min_y)
        hi = self.cell_of_point(max_x, max_y)
        ni = hi[0] - lo[0] + 1
        nj = hi[1] - lo[1] + 1
        if ni <= 0 or nj <= 0:
            return covered
        f1x, f1y = ellipse.f1
        f2x, f2y = ellipse.f2
        bound = ellipse.distance_sum + 1e-12
        if np is None:
            # Scalar fallback: same corner lattice, one membership test per
            # point, memoised row-by-row so each corner is evaluated once.
            def inside_at(i: int, j: int) -> int:
                x = self.origin[0] + i * self.cell_size
                y = self.origin[1] + j * self.cell_size
                return int(
                    math.hypot(x - f1x, y - f1y) + math.hypot(x - f2x, y - f2y)
                    <= bound
                )

            prev = [inside_at(lo[0], j) for j in range(lo[1], hi[1] + 2)]
            for i in range(lo[0], hi[0] + 1):
                cur = [inside_at(i + 1, j) for j in range(lo[1], hi[1] + 2)]
                for dj, j in enumerate(range(lo[1], hi[1] + 1)):
                    corners = prev[dj] + prev[dj + 1] + cur[dj] + cur[dj + 1]
                    if corners >= 2:
                        covered.add((i, j))
                prev = cur
            return covered
        # Corner lattice of the (ni x nj) sub-grid: (ni+1) x (nj+1) points.
        xs = self.origin[0] + np.arange(lo[0], hi[0] + 2) * self.cell_size
        ys = self.origin[1] + np.arange(lo[1], hi[1] + 2) * self.cell_size
        gx = xs[:, None]
        gy = ys[None, :]
        inside = (
            np.hypot(gx - f1x, gy - f1y) + np.hypot(gx - f2x, gy - f2y)
            <= bound
        ).astype(np.int8)
        # Per cell: the number of its four corners inside the ellipse.
        corner_count = (
            inside[:-1, :-1] + inside[1:, :-1] + inside[:-1, 1:] + inside[1:, 1:]
        )
        ii, jj = np.nonzero(corner_count >= 2)
        covered.update(zip((ii + lo[0]).tolist(), (jj + lo[1]).tolist()))
        return covered

    def cells_in_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> List[Cell]:
        """All cells intersecting an axis-aligned box (clamped to the grid)."""
        lo = self.cell_of_point(min_x, min_y)
        hi = self.cell_of_point(max_x, max_y)
        return [
            (i, j)
            for i in range(lo[0], hi[0] + 1)
            for j in range(lo[1], hi[1] + 1)
        ]

    @property
    def nonempty_cells(self) -> int:
        """Number of finest-level cells holding at least one vertex or edge."""
        return len(self._cells)
