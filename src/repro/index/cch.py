"""Customizable Contraction Hierarchies (CRP/CCH-style order/metric split).

The legacy :class:`~repro.index.ch.ContractionHierarchy` couples two very
different decisions: *which* vertex to contract next (a topology question)
and *what each shortcut weighs* (a metric question).  Every weight epoch
therefore forces a full rebuild — the paper's Figure 8 argument that
index-based methods cannot chase a dynamic network.

This module splits them, following Dibbelt/Strasser/Wagner's Customizable
Contraction Hierarchies and the CRP line of work:

* **Metric-independent order** (:meth:`CustomizableContractionHierarchy.
  _build_order`): a deterministic minimum-degree elimination over the
  undirected skeleton, inserting *all* fill-in edges (no witness searches
  — witnesses depend on the metric, which is exactly what we must not
  look at).  The result is a chordal supergraph whose edges are the
  superset of every shortcut any metric could need, plus the complete
  **lower-triangle list**, enumerated once.

* **Fast customization** (:meth:`CustomizableContractionHierarchy.
  customize`): given the current weights, a single bottom-up pass over
  the precomputed triangles recomputes every shortcut weight — two
  ``min`` updates per triangle, no graph search, no ordering work.
  Re-customizing after a traffic epoch costs a fraction of a rebuild
  (the ``cch_customize`` benchmark enforces >= 5x at
  ``beijing_like("large")``).

Layout
------

The chordal supergraph lives in one flat CSR-style layout, built once per
topology and shared by customization, query and unpacking:

* Vertices are ranked **level-major**: ``level(v) = 1 + max level of v's
  lower neighbours`` (0 without any), ties inside a level in elimination
  order.  Every lower neighbour of a vertex still precedes it, so this is
  the same elimination (same fill-in, same up/down orientation), merely
  renumbered so that rank order *is* level order.
* Super-edge ``e`` joins ``tail[e]`` (lower) to ``head[e]`` (higher);
  ids run in rank order of the tail, then of the head, so the up-edges
  of the vertex ranked ``r`` are ``first_out[r] .. first_out[r + 1]``.
  ``up[e]`` prices the arc tail->head, ``down[e]`` the arc head->tail.
* Lower triangle ``t`` = ``(tri_ab[t], tri_va[t], tri_vb[t])`` — the
  super-edge it relaxes and its two lower legs — for ``v < a < b``,
  sorted by rank of ``v`` and therefore grouped by level:
  ``level_first[k] .. level_first[k + 1]`` are the triangles whose lowest
  vertex sits in level ``k``.  They read only edges whose tail is in
  level ``k`` (final by then) and write only edges of higher levels.
* ``up_tri[e]`` / ``down_tri[e]`` name the triangle that set the
  customized weight (``-1``: the original arc survives) — the *first* in
  rank order attaining the final minimum.  Unpacking follows them from
  super-edge id to super-edge id without any endpoint lookup.
* ``arc_slot[i]`` sends the graph's ``i``-th arc to its covering
  super-edge (``e`` upward, ``num_super_edges + e`` downward), so loading
  a metric is one scatter.

One layout, two customization loops: with numpy importable (and the
``REPRO_KERNEL`` knob not pinned to ``csr``) each level is one gather
plus one ``minimum``-scatter per direction; otherwise a scalar loop walks
the same arrays.  Both produce identical weights and triangle choices.

Customized state is keyed to ``graph.version`` — the same epoch counter
that invalidates :class:`~repro.core.cache.VersionedPathCache` and frozen
CSR snapshots — so ``set_weight`` / ``scale_weights`` /
:class:`~repro.network.timeline.TrafficTimeline` advances mark the index
stale and :meth:`ensure_current` re-customizes instead of rebuilding.
``add_edge`` only forces an order rebuild when the new arc is not already
covered by a chordal super-edge.

Exactness: the customized upward/downward weights admit a shortest
up-down path for every vertex pair (the standard CCH theorem: the chordal
supergraph contains the full elimination-tree shortcut set, and the
bottom-up triangle pass computes each super-edge's exact restricted
distance).  Queries unpack shortcuts to original arcs and return the
path's own weight sum, so a finite answer is always a real path priced
exactly as Dijkstra would price it — the mutation-interleaving
differential suite in ``tests/correctness/test_differential.py`` pins
this across arbitrary mutation/query schedules.
"""

from __future__ import annotations

import math
import time
from array import array
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from typing import Any, Dict, List, Tuple

from ..exceptions import IndexConstructionError, QueryError, StaleIndexError
from ..obs import record_customize
from ..search.common import PathResult
from ..search.np_kernels import kernel_backend

try:  # numpy is an optional extra: customization has a scalar loop
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _numpy = None  # type: ignore[assignment]

#: What a customization loop returns: up and down weights, then the
#: triangle that set each of them, all indexed by super-edge id.
_Customized = Tuple[List[float], List[float], List[int], List[int]]


class CustomizableContractionHierarchy:
    """A CH whose hierarchy survives weight changes.

    Parameters
    ----------
    graph:
        The (mutable) road network.  Weight mutations leave the
        contraction order valid; :meth:`customize` re-prices the
        shortcuts.  ``add_edge`` beyond the chordal closure triggers a
        full order rebuild on the next customization.
    auto_customize:
        When ``True`` (default) a stale index re-customizes itself on
        the next :meth:`query`/:meth:`distance`; when ``False`` a stale
        query raises :class:`~repro.exceptions.StaleIndexError` instead
        (the legacy index's contract, for callers that must control
        exactly when customization cost is paid).
    """

    def __init__(self, graph, auto_customize: bool = True) -> None:
        if graph.num_vertices == 0:
            raise IndexConstructionError("cannot build a CCH over an empty graph")
        self.graph = graph
        self.auto_customize = auto_customize
        #: Monotonic counters — how often each phase has run on this index.
        self.customizations = 0
        self.order_builds = 0
        self.order_seconds = 0.0
        self.customize_seconds = 0.0
        #: ``graph.version`` the current shortcut weights were priced at.
        self.customized_version = -1
        self._build_order()
        self.customize()

    # ------------------------------------------------------------------
    # Phase 1: metric-independent contraction order (topology only)
    # ------------------------------------------------------------------
    def _build_order(self) -> None:
        """Minimum-degree elimination with full fill-in, plus triangles.

        Deterministic: ties break on vertex id, so the same topology
        always yields the same order, super-edge numbering and triangle
        list (the idempotence property suite relies on this).
        """
        start = time.perf_counter()
        graph = self.graph
        n = graph.num_vertices
        nbr: List[set] = [set() for _ in range(n)]
        for u, v, _w in graph.edges():
            nbr[u].add(v)
            nbr[v].add(u)
        contracted = [False] * n
        eliminated: List[int] = []
        #: Chordal up-neighborhood: the still-uncontracted neighbors at
        #: the moment each vertex is eliminated (all higher-ranked).
        up_nbrs: List[List[int]] = [[] for _ in range(n)]
        heap: List[Tuple[int, int]] = [(len(nbr[v]), v) for v in range(n)]
        heapify(heap)
        while heap:
            deg, v = heappop(heap)
            if contracted[v]:
                continue
            if deg != len(nbr[v]):
                # Lazy key update: fill raised (or contraction lowered)
                # the degree since this entry was pushed.
                heappush(heap, (len(nbr[v]), v))
                continue
            neigh = sorted(nbr[v])
            up_nbrs[v] = neigh
            eliminated.append(v)
            contracted[v] = True
            for u in neigh:
                nbr[u].discard(v)
            for i, a in enumerate(neigh):
                na = nbr[a]
                for b in neigh[i + 1:]:
                    if b not in na:
                        na.add(b)
                        nbr[b].add(a)

        # Level-major ranks.  Sorting the elimination sequence by level
        # (stably) keeps every vertex after all of its lower neighbours,
        # so fill-in and edge orientation are those of the elimination.
        level = [0] * n
        for v in eliminated:
            above = level[v] + 1
            for u in up_nbrs[v]:
                if level[u] < above:
                    level[u] = above
        by_rank = sorted(eliminated, key=level.__getitem__)
        rank = [0] * n
        for r, v in enumerate(by_rank):
            rank[v] = r
        self.rank = rank

        # Super-edges, numbered in rank order of tail then head.
        first_out = array("q", [0])
        head: List[int] = []
        tail = array("q")
        #: head -> super-edge id per tail vertex; only the triangle
        #: enumeration below needs it.
        eid_of: List[Dict[int, int]] = [{}] * n
        for v in by_rank:
            heads = sorted(up_nbrs[v], key=rank.__getitem__)
            lo = len(head)
            head.extend(heads)
            tail.extend(repeat(v, len(heads)))
            first_out.append(len(head))
            eid_of[v] = dict(zip(heads, range(lo, len(head))))
        self._first_out = first_out
        self._head = head
        self._tail = tail
        self.num_super_edges = len(head)

        # Lower triangles (v; a, b) with rank v < rank a < rank b, in rank
        # order of v: both lower legs (v,a) and (v,b) are final when the
        # triangle relaxes (a,b) — the bottom-up customization invariant.
        tri_ab = array("q")
        tri_va = array("q")
        tri_vb = array("q")
        level_first = array("q")
        for r, v in enumerate(by_rank):
            if level[v] == len(level_first):
                level_first.append(len(tri_ab))
            lo, hi = first_out[r], first_out[r + 1]
            heads = head[lo:hi]
            for i in range(hi - lo - 1):
                higher = heads[i + 1:]
                tri_ab.extend(map(eid_of[heads[i]].__getitem__, higher))
                tri_va.extend(repeat(lo + i, len(higher)))
                tri_vb.extend(range(lo + i + 1, hi))
        level_first.append(len(tri_ab))
        self._tri_ab = tri_ab
        self._tri_va = tri_va
        self._tri_vb = tri_vb
        self._level_first = level_first
        self.num_triangles = len(tri_ab)
        self.num_levels = len(level_first) - 1

        if not self._map_arcs():  # pragma: no cover - invariant
            raise IndexConstructionError(
                "CCH order rebuild failed to cover the graph's arcs"
            )
        self.order_builds += 1
        self.order_seconds = time.perf_counter() - start

    def _map_arcs(self) -> bool:
        """Map every arc (``graph.edges()`` order) to its slot; False on a miss.

        A miss means some arc has no covering super-edge — the graph's
        topology changed in a way the recorded order cannot express.
        """
        rank = self.rank
        first_out = self._first_out
        head = self._head
        m = self.num_super_edges
        slots = array("q")
        try:
            for u, v, _w in self.graph.edges():
                if rank[u] < rank[v]:
                    r = rank[u]
                    slots.append(head.index(v, first_out[r], first_out[r + 1]))
                else:
                    r = rank[v]
                    slots.append(m + head.index(u, first_out[r], first_out[r + 1]))
        except ValueError:
            return False
        self._arc_slot = slots
        return True

    # ------------------------------------------------------------------
    # Phase 2: metric customization (weights only)
    # ------------------------------------------------------------------
    def customize(self) -> float:
        """Re-price every shortcut for the graph's *current* weights.

        Returns the seconds spent.  If the graph grew an arc outside the
        chordal closure (a topology change no customization can absorb),
        the order is rebuilt first — counted in ``order_builds``, timed
        into ``order_seconds`` (not into the customization) and reported
        in the ``index.order_builds`` metric.
        """
        start = time.perf_counter()
        rebuilt = False
        if self.graph.num_edges != len(self._arc_slot) and not self._map_arcs():
            # Topology outgrew the chordal supergraph: rebuild the order
            # (the rare path — weight-only epochs never land here).
            self._build_order()
            rebuilt = True
            start = time.perf_counter()
        # Arc weights in ``graph.edges()`` order, without the generator.
        rows = self.graph._adj  # noqa: SLF001 - hot path
        weights = [w for _v, w in chain.from_iterable(rows)]
        if _numpy is not None and kernel_backend() != "csr":
            loop = self._customize_levels
        else:
            loop = self._customize_scalar
        self._up, self._down, self._up_tri, self._down_tri = loop(weights)
        self.customized_version = self.graph.version
        self.customizations += 1
        self.customize_seconds = time.perf_counter() - start
        record_customize(
            edges=self.num_super_edges,
            triangles=self.num_triangles,
            seconds=self.customize_seconds,
            order_rebuilt=rebuilt,
        )
        return self.customize_seconds

    def _customize_scalar(self, weights: List[float]) -> _Customized:
        """One strict-improvement pass over the triangles in rank order."""
        m = self.num_super_edges
        both = [math.inf] * (2 * m)
        for slot, w in zip(self._arc_slot, weights):
            both[slot] = w
        up = both[:m]
        down = both[m:]
        up_tri = [-1] * m
        down_tri = [-1] * m
        triangles = zip(
            range(self.num_triangles), self._tri_ab, self._tri_va, self._tri_vb
        )
        for t, ab, va, vb in triangles:
            c = down[va] + up[vb]
            if c < up[ab]:
                up[ab] = c
                up_tri[ab] = t
            c = down[vb] + up[va]
            if c < down[ab]:
                down[ab] = c
                down_tri[ab] = t
        return up, down, up_tri, down_tri

    def _customize_levels(self, weights: List[float]) -> _Customized:
        """The same pass, one gather + ``minimum``-scatter per level."""
        xp = _numpy
        # Zero-copy views: the flat arrays are int64 so that they index
        # without conversion.
        arc_slot, tri_ab, tri_va, tri_vb = (
            xp.frombuffer(buf, dtype=xp.int64)
            for buf in (self._arc_slot, self._tri_ab, self._tri_va, self._tri_vb)
        )
        m = self.num_super_edges
        both = xp.full(2 * m, math.inf)
        both[arc_slot] = weights
        up = both[:m]
        down = both[m:]
        up_tri = xp.full(m, -1, dtype=xp.int64)
        down_tri = xp.full(m, -1, dtype=xp.int64)
        level_first = self._level_first
        for t0, t1 in zip(level_first, level_first[1:]):
            if t0 == t1:
                continue
            ab = tri_ab[t0:t1]
            va = tri_va[t0:t1]
            vb = tri_vb[t0:t1]
            # The level reads edges whose tail is in it and writes edges
            # whose tail is above it: the gathers never see a half-relaxed
            # weight.
            _relax_level(up, up_tri, ab, down[va] + up[vb], t0)
            _relax_level(down, down_tri, ab, down[vb] + up[va], t0)
        return up.tolist(), down.tolist(), up_tri.tolist(), down_tri.tolist()

    # ------------------------------------------------------------------
    # Epoch keying
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the network mutated after the last customization."""
        return self.graph.version != self.customized_version

    def ensure_current(self) -> bool:
        """Re-customize iff the graph moved past ``customized_version``.

        Returns ``True`` when a customization ran — the streaming tier
        counts these to prove it never served a stale epoch.
        """
        if self.stale:
            self.customize()
            return True
        return False

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _check_current(self) -> None:
        if not self.stale:
            return
        if self.auto_customize:
            self.customize()
        else:
            raise StaleIndexError(
                "CustomizableContractionHierarchy",
                self.customized_version,
                self.graph.version,
            )

    def distance(self, source: int, target: int) -> float:
        """Exact shortest distance (auto-customizes when stale)."""
        return self.query(source, target).distance

    def query(self, source: int, target: int) -> PathResult:
        """Exact :class:`PathResult` with the unpacked original-arc path.

        The returned distance is the unpacked path's own left-to-right
        weight sum — the same accumulation Dijkstra performs along the
        tree branch — so answers match the oracle bit-for-bit whenever
        the shortest path is unique.
        """
        n = len(self.rank)
        for v in (source, target):
            if not 0 <= v < n:
                raise QueryError(f"vertex {v} out of range (|V| = {n})")
        self._check_current()
        meet, par_f, par_b, visited = self._search(source, target)
        if meet < 0:
            return PathResult(source, target, math.inf, [], visited)
        rank = self.rank
        first_out = self._first_out
        head = self._head
        # Packed arcs, last first: super-edge ``e`` is the upward arc
        # tail->head, ``~e`` the downward arc head->tail.
        stack: List[int] = []
        v = meet
        while v != target:
            u = par_b[v]
            r = rank[u]
            stack.append(~head.index(v, first_out[r], first_out[r + 1]))
            v = u
        stack.reverse()
        v = meet
        while v != source:
            u = par_f[v]
            r = rank[u]
            stack.append(head.index(v, first_out[r], first_out[r + 1]))
            v = u
        # Unpack depth-first, pricing each original arc as it is emitted.
        # Iterative: unpacked paths can be hundreds of arcs long at the
        # larger scales, and recursion depth would track path length.
        tail = self._tail
        up = self._up
        down = self._down
        up_tri = self._up_tri
        down_tri = self._down_tri
        tri_va = self._tri_va
        tri_vb = self._tri_vb
        path = [source]
        distance = 0.0
        while stack:
            e = stack.pop()
            if e >= 0:
                t = up_tri[e]
                if t < 0:
                    path.append(head[e])
                    distance += up[e]
                else:  # a -> v -> b: down the lower leg (v,a), up (v,b)
                    stack.append(tri_vb[t])
                    stack.append(~tri_va[t])
            else:
                e = ~e
                t = down_tri[e]
                if t < 0:
                    path.append(tail[e])
                    distance += down[e]
                else:  # b -> v -> a: down the lower leg (v,b), up (v,a)
                    stack.append(tri_va[t])
                    stack.append(~tri_vb[t])
        return PathResult(source, target, distance, path, visited)

    def _search(
        self, source: int, target: int
    ) -> Tuple[int, Dict[int, int], Dict[int, int], int]:
        """Bidirectional upward search over the customized supergraph.

        Returns the meeting vertex (``-1``: unreachable), the two parent
        maps and the number of vertices settled in both directions.  A
        label is pushed only while it can still beat ``best``: one that
        cannot would be popped and discarded anyway.
        """
        rank = self.rank
        first_out = self._first_out
        head = self._head
        up = self._up
        down = self._down
        inf = math.inf
        dist_f = [inf] * len(rank)
        dist_b = [inf] * len(rank)
        dist_f[source] = 0.0
        dist_b[target] = 0.0
        par_f: Dict[int, int] = {}
        par_b: Dict[int, int] = {}
        heap_f: List[Tuple[float, int]] = [(0.0, source)]
        heap_b: List[Tuple[float, int]] = [(0.0, target)]
        best = inf
        meet = -1
        visited = 0
        while heap_f or heap_b:
            if heap_f and (not heap_b or heap_f[0][0] <= heap_b[0][0]):
                d, u = heappop(heap_f)
                if d > dist_f[u] or d > best:
                    continue
                visited += 1
                if d + dist_b[u] < best:
                    best = d + dist_b[u]
                    meet = u
                r = rank[u]
                lo, hi = first_out[r], first_out[r + 1]
                for v, w in zip(head[lo:hi], up[lo:hi]):
                    nd = d + w
                    if nd <= best and nd < dist_f[v]:
                        dist_f[v] = nd
                        par_f[v] = u
                        heappush(heap_f, (nd, v))
            else:
                d, u = heappop(heap_b)
                if d > dist_b[u] or d > best:
                    continue
                visited += 1
                if d + dist_f[u] < best:
                    best = d + dist_f[u]
                    meet = u
                r = rank[u]
                lo, hi = first_out[r], first_out[r + 1]
                for v, w in zip(head[lo:hi], down[lo:hi]):
                    nd = d + w
                    if nd <= best and nd < dist_b[v]:
                        dist_b[v] = nd
                        par_b[v] = u
                        heappush(heap_b, (nd, v))
        return meet, par_f, par_b, visited

    # ------------------------------------------------------------------
    def shortcut_weights(self) -> Tuple[List[float], List[float]]:
        """Copies of the customized (up, down) weight arrays.

        Exposed for the idempotence/path-independence property suite:
        identical metric => identical arrays, however it was reached.
        """
        return list(self._up), list(self._down)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CustomizableContractionHierarchy(|V|={self.graph.num_vertices}, "
            f"super_edges={self.num_super_edges}, "
            f"triangles={self.num_triangles}, "
            f"customizations={self.customizations}, stale={self.stale})"
        )


def _relax_level(weight: Any, via: Any, ab: Any, cand: Any, t0: int) -> None:
    """``weight[ab] = min(weight[ab], cand)`` for one level and direction.

    ``via`` gets the triangle id (``t0 +`` position) of the first
    candidate, in order, that attains a strictly improved minimum — what
    a strict-improvement scalar pass over the same order records.
    """
    better = (cand < weight[ab]).nonzero()[0]
    if better.size == 0:
        return
    ab = ab[better]
    cand = cand[better]
    _numpy.minimum.at(weight, ab, cand)
    attains = (cand == weight[ab]).nonzero()[0]
    ab = ab[attains]
    # Lowest attaining triangle id per edge: reset, then scatter-min
    # (both independent of the order numpy visits repeated indices in).
    via[ab] = _numpy.iinfo(via.dtype).max
    _numpy.minimum.at(via, ab, better[attains] + t0)
