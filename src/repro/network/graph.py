"""The road-network substrate: a directed spatial graph with dynamic weights.

The paper models a road network as a directed graph ``G(V, E)`` where each
vertex carries a longitude/latitude coordinate and each edge a non-negative
travel cost, and treats the *dynamic* network as a series of static snapshots
(Section I).  :class:`RoadNetwork` implements exactly that: adjacency is
mutable in O(1) per edge so a new snapshot is just a round of
:meth:`RoadNetwork.set_weight` calls, and a monotonically increasing
``version`` lets downstream caches detect that their entries became stale.

Coordinates are kilometres on a local tangent plane.  For A*-style searches
to stay admissible the graph exposes :attr:`RoadNetwork.heuristic_scale`,
the largest ``c`` such that ``c * euclidean(u, v) <= w(u, v)`` for every
edge; multiplying the Euclidean heuristic by it keeps A* exact even when
weights are travel times rather than distances.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import GraphError
from .spatial import euclidean, reference_angle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .csr import CSRGraph
    from .grid import GridIndex

EdgeTuple = Tuple[int, int, float]


class RoadNetwork:
    """A directed, spatially embedded road network with mutable edge weights.

    Parameters
    ----------
    xs, ys:
        Vertex coordinates in kilometres; ``len(xs) == len(ys)`` defines the
        number of vertices, numbered ``0 .. n-1``.
    edges:
        Optional iterable of ``(u, v, w)`` tuples to insert at construction.
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        edges: Optional[Iterable[EdgeTuple]] = None,
    ) -> None:
        if len(xs) != len(ys):
            raise GraphError("xs and ys must have the same length")
        self.xs: List[float] = [float(x) for x in xs]
        self.ys: List[float] = [float(y) for y in ys]
        n = len(self.xs)
        # Forward and reverse adjacency: adj[u] is a list of [v, w] pairs.
        # The inner pairs are lists (not tuples) so that set_weight can patch
        # them in place without rebuilding the rows.
        self._adj: List[List[List[float]]] = [[] for _ in range(n)]
        self._radj: List[List[List[float]]] = [[] for _ in range(n)]
        self._edge_pos: Dict[Tuple[int, int], int] = {}
        self._redge_pos: Dict[Tuple[int, int], int] = {}
        self._weight_sum = 0.0
        self._min_ratio: Optional[float] = None
        self._min_ratio_dirty = False
        #: Incremented on every mutation; caches key their validity on it.
        self.version = 0
        self._frozen: Optional["CSRGraph"] = None
        #: ``(version, {levels: GridIndex})``: the shared grids of one version.
        self._grids: Tuple[int, Dict[int, "GridIndex"]] = (-1, {})
        if edges is not None:
            for u, v, w in edges:
                self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.xs)

    @property
    def num_edges(self) -> int:
        return len(self._edge_pos)

    def __len__(self) -> int:
        return self.num_vertices

    def coord(self, v: int) -> Tuple[float, float]:
        """The ``(x, y)`` coordinate of vertex ``v``."""
        return (self.xs[v], self.ys[v])

    def neighbors(self, u: int) -> List[List[float]]:
        """Outgoing ``[v, w]`` pairs of ``u``.  Treat as read-only."""
        return self._adj[u]

    def in_neighbors(self, v: int) -> List[List[float]]:
        """Incoming ``[u, w]`` pairs of ``v``.  Treat as read-only."""
        return self._radj[v]

    def out_degree(self, u: int) -> int:
        return len(self._adj[u])

    def in_degree(self, v: int) -> int:
        return len(self._radj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v]) + len(self._radj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_pos

    def weight(self, u: int, v: int) -> float:
        """Current weight of edge ``(u, v)``; raises if the edge is absent."""
        try:
            pos = self._edge_pos[(u, v)]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None
        return self._adj[u][pos][1]

    def edges(self) -> Iterator[EdgeTuple]:
        """Iterate over all ``(u, v, w)`` edges in insertion order per vertex."""
        for u, row in enumerate(self._adj):
            for v, w in row:
                yield (u, int(v), w)

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between vertices ``u`` and ``v``."""
        return euclidean(self.xs[u], self.ys[u], self.xs[v], self.ys[v])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.xs):
            raise GraphError(f"vertex {v} out of range [0, {len(self.xs)})")

    def add_edge(self, u: int, v: int, w: float) -> None:
        """Insert directed edge ``(u, v)`` with weight ``w`` (>= 0)."""
        # Normalise endpoints to int up front: rows store [int, float] so
        # downstream consumers (kernels, ratio recompute) never see a float
        # vertex id even when callers pass numpy scalars or floats.
        u, v = int(u), int(v)
        self._check_vertex(u)
        self._check_vertex(v)
        if w < 0:
            raise GraphError(f"negative weight {w} on edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        if (u, v) in self._edge_pos:
            raise GraphError(f"edge ({u}, {v}) already exists")
        self._edge_pos[(u, v)] = len(self._adj[u])
        self._adj[u].append([v, float(w)])
        self._redge_pos[(u, v)] = len(self._radj[v])
        self._radj[v].append([u, float(w)])
        self._weight_sum += w
        self._note_ratio(u, v, w)
        self.version += 1

    def set_weight(self, u: int, v: int, w: float) -> None:
        """Update the weight of an existing edge in O(1) (dynamic snapshot)."""
        if w < 0:
            raise GraphError(f"negative weight {w} on edge ({u}, {v})")
        try:
            pos = self._edge_pos[(u, v)]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None
        old = self._adj[u][pos][1]
        self._adj[u][pos][1] = float(w)
        self._radj[v][self._redge_pos[(u, v)]][1] = float(w)
        self._weight_sum += w - old
        # Keep the cached min weight/euclid ratio exact, not merely
        # admissible.  A new ratio at or below the cached minimum *is* the
        # new minimum; a raised ratio on an edge that may have been the
        # argmin (old ratio <= cached min) forces a lazy recompute.
        if not self._min_ratio_dirty:
            d = self.euclidean(u, v)
            if d > 0:
                ratio = float(w) / d
                if self._min_ratio is None or ratio <= self._min_ratio:
                    self._min_ratio = ratio
                elif old / d <= self._min_ratio:
                    self._min_ratio_dirty = True
        self.version += 1

    def scale_weights(self, factor: float, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        """Multiply the weight of ``edges`` (or all edges) by ``factor``.

        A convenience for simulating a traffic snapshot change: congestion is
        an epoch-wide multiplicative perturbation.
        """
        if factor < 0:
            raise GraphError("scale factor must be non-negative")
        if edges is None:
            pairs = list(self._edge_pos.keys())
        else:
            pairs = list(edges)
        for u, v in pairs:
            self.set_weight(u, v, self.weight(u, v) * factor)

    # ------------------------------------------------------------------
    # Heuristic admissibility support
    # ------------------------------------------------------------------
    def _note_ratio(self, u: int, v: int, w: float) -> None:
        d = self.euclidean(u, v)
        if d <= 0:
            return
        ratio = w / d
        if self._min_ratio is None or ratio < self._min_ratio:
            self._min_ratio = ratio

    @property
    def heuristic_scale(self) -> float:
        """Largest ``c`` with ``c * euclid(u, v) <= w(u, v)`` for all edges.

        Multiplying the Euclidean distance by this scale yields an admissible
        and consistent A* heuristic regardless of whether weights are metres,
        minutes or toll dollars.  Returns ``0.0`` for an edgeless graph, which
        degrades A* to Dijkstra.
        """
        if self._min_ratio_dirty:
            self._min_ratio = None
            for u, row in enumerate(self._adj):
                for v, w in row:
                    self._note_ratio(u, int(v), w)
            self._min_ratio_dirty = False
        if self._min_ratio is None:
            return 0.0
        return max(0.0, min(self._min_ratio, 1e18))

    def heuristic(self, u: int, v: int) -> float:
        """Admissible lower bound on the travel cost from ``u`` to ``v``."""
        return self.euclidean(u, v) * self.heuristic_scale

    # ------------------------------------------------------------------
    # Derived spatial summaries
    # ------------------------------------------------------------------
    def extent(self) -> Tuple[float, float, float, float]:
        """Bounding box ``(min_x, min_y, max_x, max_y)`` of all vertices."""
        if not self.xs:
            raise GraphError("extent of an empty network")
        return (min(self.xs), min(self.ys), max(self.xs), max(self.ys))

    def edge_direction(self, u: int, v: int) -> float:
        """Offset of edge ``(u, v)`` from the lat/lon reference, in [0, 45]."""
        return reference_angle(self.xs[v] - self.xs[u], self.ys[v] - self.ys[u])

    def total_weight(self) -> float:
        """Sum of all current edge weights."""
        return self._weight_sum

    def path_prefix_weights(self, path: Sequence[int]) -> List[float]:
        """Cumulative weights along ``path``: ``prefix[i] = d(path[0], path[i])``.

        Raises :class:`GraphError` if any consecutive pair is not an edge.
        """
        adj = self._adj
        edge_pos = self._edge_pos
        prefix = [0.0]
        total = 0.0
        for u, v in zip(path, path[1:]):
            try:
                total += adj[u][edge_pos[(u, v)]][1]
            except KeyError:
                raise GraphError(f"edge ({u}, {v}) does not exist") from None
            prefix.append(total)
        return prefix

    # ------------------------------------------------------------------
    # Frozen CSR snapshots
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRGraph":
        """Return a flat-array :class:`~repro.network.csr.CSRGraph` snapshot.

        The snapshot is cached and keyed to :attr:`version`: repeated calls
        return the *same object* until the network mutates, so answerers and
        the parallel engine can freeze eagerly without duplicating work.
        Freezing also recomputes :attr:`total_weight` exactly, flushing any
        float drift accumulated by incremental ``set_weight`` updates.
        """
        frozen = self._frozen
        if frozen is not None and frozen.version == self.version:
            return frozen
        from .csr import freeze_network

        # Exact (fsum) recompute of the incrementally maintained weight sum:
        # each set_weight adds `w - old` in floating point, and over long
        # churn the rounding errors drift.
        self._weight_sum = math.fsum(w for row in self._adj for _, w in row)
        frozen, seconds = freeze_network(self)
        self._frozen = frozen
        from .. import obs

        obs.record_freeze(frozen.num_vertices, frozen.num_edges, seconds)
        return frozen

    def frozen_or_none(self) -> Optional["CSRGraph"]:
        """The cached frozen snapshot if still valid for :attr:`version`."""
        frozen = self._frozen
        if frozen is not None and frozen.version == self.version:
            return frozen
        return None

    def grid_index(self, levels: int = 5) -> "GridIndex":
        """The shared :class:`~repro.network.grid.GridIndex` of this version.

        Built on first use and cached like :meth:`freeze`: every caller
        asking for the same ``levels`` at the same :attr:`version` gets the
        *same object*, and a mutation drops the cache (only the latest
        version is kept).  ``GridIndex(graph, levels)`` still builds a
        private grid.
        """
        version, grids = self._grids
        if version != self.version:
            grids = {}
            self._grids = (self.version, grids)
        grid = grids.get(levels)
        if grid is None:
            from .grid import GridIndex

            # A proxy, not the network itself: a grid cached here must not
            # form a reference cycle that keeps a dropped network alive
            # until the next cyclic collection.
            grid = grids[levels] = GridIndex(weakref.proxy(self), levels=levels)
        return grid

    def __getstate__(self) -> Dict[str, object]:
        # Never ship the frozen snapshot or the shared grids inside a pickled
        # network: both are derived state, the snapshot may be shm-backed
        # (unpicklable by design), and spawn workers re-freeze or attach
        # explicitly.
        state = self.__dict__.copy()
        state["_frozen"] = None
        del state["_grids"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._grids = (-1, {})

    def reversed_copy(self) -> "RoadNetwork":
        """A new network with every edge direction flipped."""
        rev = RoadNetwork(self.xs, self.ys)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        return rev

    def copy(self) -> "RoadNetwork":
        """Deep copy (independent weights)."""
        return RoadNetwork(self.xs, self.ys, self.edges())

    def is_strongly_connected_sample(self, samples: int = 5, seed: int = 0) -> bool:
        """Cheap probe: can a few random vertices reach/be reached by vertex 0?

        Not a full SCC check (that is ``repro.search.dijkstra.sssp`` territory)
        but a fast sanity guard used by the generators' self-tests.
        """
        import random

        from ..search.dijkstra import sssp_distances

        if self.num_vertices == 0:
            return True
        rng = random.Random(seed)
        fwd = sssp_distances(self, 0)
        bwd = sssp_distances(self, 0, backward=True)
        for _ in range(samples):
            v = rng.randrange(self.num_vertices)
            if math.isinf(fwd[v]) or math.isinf(bwd[v]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"version={self.version})"
        )
