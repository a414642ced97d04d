"""ALT landmarks (Goldberg & Harrelson) — the paper's alternative heuristic.

Section IV-B notes the generalized A* heuristic can use "Euclidean distance
or Landmark estimation".  :class:`LandmarkIndex` implements the classic ALT
scheme: pick a few well-spread landmarks, precompute distances to and from
each, and use the triangle inequality

    d(u, t) >= max_L max(d(L, t) - d(L, u), d(u, L) - d(t, L))

as an admissible, consistent heuristic.  Construction is a handful of full
Dijkstras, so unlike CH/PLL it is cheap enough to refresh per snapshot.

Two forms live here:

* :class:`SnapshotLandmarks` is the product's miss heuristic: the Local
  Cache's misses, R2R's representative legs and the ``astar-alt`` method
  search with it.  It belongs to one frozen
  :class:`~repro.network.csr.CSRGraph` (a slot beside the numpy view), is
  built lazily by :func:`snapshot_landmarks` on the snapshot's first miss
  with two joint numpy sweeps, and dies with the snapshot — a new
  ``graph.version`` is a new snapshot and so new landmarks, which keeps the
  bound exact in every weight epoch.  Each heuristic vector costs O(n), so
  the provider keeps the last :data:`VECTOR_MEMO` of them keyed by target:
  the misses of a batch share few targets (hotspots), and a repeated target
  reads its vector back instead of rebuilding it.  The memo lives on the
  provider, so it too dies with the snapshot.  Without numpy, on a mutable
  graph, under ``REPRO_KERNEL=csr`` or for a miss too short to pay for its
  vector (:data:`MIN_LENGTH_SHARE`) the Euclidean bound stays.
* :class:`LandmarkIndex` is the dict-graph form over Python lists, kept
  for :func:`~repro.search.generalized_astar.generalized_a_star`'s
  ``landmarks=`` option and as the readable reference of the bound.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import IndexConstructionError
from ..obs import record_landmark_build, record_vector_reused
from ..resilience.deadline import use_deadline
from . import np_kernels
from .astar import a_star
from .common import PathResult
from .csr_kernels import frozen_csr
from .dijkstra import sssp_distances

#: Landmarks per snapshot: forward and backward rows make a ``(16, n)`` array.
NUM_LANDMARKS = 8

#: Heuristic vectors a snapshot keeps, least recently used out first:
#: ``8 * n`` floats, ~1.3 MB on ``xlarge``.
VECTOR_MEMO = 8

#: A miss shorter than this share of the snapshot's extent keeps the
#: Euclidean bound.  The landmark vector costs O(n) per miss whatever the
#: miss, so it pays only once Euclidean A* would settle ~2 % of the
#: snapshot; on the bundled maps the measured crossover is a query of 0.14
#: (``xlarge``), 0.17 (``large``) and 0.19 (``medium``) of the extent, so
#: from 0.2 on the bound wins on every map from ``medium`` up.
MIN_LENGTH_SHARE = 0.2

#: Bucket width of the build sweeps, in mean edge weights.  Full rows have
#: no target to stop at, so few wide buckets beat many narrow ones: ~50 ms
#: for both directions on ``xlarge`` (20 737 vertices) against ~100 ms at
#: the point-to-point width.
_SWEEP_WIDTH = 64.0


def _farthest_points(xs: Any, ys: Any, k: int) -> List[int]:
    """``k`` Euclidean farthest-point landmarks: the easternmost vertex,
    then repeatedly the vertex farthest from its nearest chosen landmark,
    which spreads them over the periphery."""
    xp = np_kernels._numpy
    chosen = [int(xs.argmax())]
    nearest = xp.hypot(xs - xs[chosen[0]], ys - ys[chosen[0]])
    while len(chosen) < min(k, xs.size):
        v = int(nearest.argmax())
        chosen.append(v)
        xp.minimum(nearest, xp.hypot(xs - xs[v], ys - ys[v]), out=nearest)
    return chosen


def _sssp_rows(view: Any, sources: List[int], backward: bool) -> Any:
    """``(len(sources), n)`` exact distances from every source (to it when
    ``backward``), as one joint sweep whose rows never retire."""
    xp = np_kernels._numpy
    k, n = len(sources), view.n
    indptr, targets, weights = view.rows(backward)
    dist = xp.full(k * n, math.inf)
    seeds = xp.array([r * n + v for r, v in enumerate(sources)], dtype=xp.int64)
    dist[seeds] = 0.0
    np_kernels._joint_sweep(
        indptr, targets, weights, dist, seeds, None, n, k, view.delta * _SWEEP_WIDTH
    )
    return dist.reshape(k, n)


class SnapshotLandmarks:
    """ALT bounds of one frozen snapshot as one flat ``(2k, n)`` array.

    Row ``i < k`` holds ``-d(L_i, v)`` and row ``k + i`` holds
    ``d(v, L_i)``, so both triangle bounds toward a target ``t`` read the
    same way: ``rows[j, u] - rows[j, t]``.  Pairs with no finite bound
    (a landmark that reaches neither ``u`` nor ``t``, say) give ``nan``,
    which ``fmax`` skips; an infinite bound only ever marks a vertex that
    cannot reach ``t``.  The bound is the maximum of consistent bounds and
    0, hence consistent, and ``csr_a_star``'s closed set stays exact.
    """

    __slots__ = ("landmarks", "rows", "min_length", "_vectors")

    def __init__(self, csr: Any) -> None:
        xp = np_kernels._numpy
        view = np_kernels._view(csr)
        xs = xp.frombuffer(csr.xs, dtype=xp.float64)
        ys = xp.frombuffer(csr.ys, dtype=xp.float64)
        extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()))
        #: Euclidean length below which a miss keeps the Euclidean bound.
        self.min_length = MIN_LENGTH_SHARE * extent
        self.landmarks = _farthest_points(xs, ys, NUM_LANDMARKS)
        k = len(self.landmarks)
        rows = xp.empty((2 * k, view.n))
        rows[:k] = _sssp_rows(view, self.landmarks, backward=False)
        xp.negative(rows[:k], out=rows[:k])
        rows[k:] = _sssp_rows(view, self.landmarks, backward=True)
        self.rows = rows
        #: target -> its heuristic vector, least recently used first.
        self._vectors: Dict[int, array[float]] = {}

    def heuristic(self, target: int) -> Callable[[int], float]:
        """``h(u)``, a lower bound on ``d(u, target)``, read from the
        target's vector: built on first use and kept among the last
        :data:`VECTOR_MEMO` targets, so a repeated target reuses it
        (counted by ``search.heuristic.vector_reused``)."""
        vectors = self._vectors
        vector = vectors.pop(target, None)
        if vector is not None:
            record_vector_reused()
        else:
            vector = self._vector(target)
            if len(vectors) >= VECTOR_MEMO:
                del vectors[next(iter(vectors))]
        vectors[target] = vector
        return vector.__getitem__

    def _vector(self, target: int) -> array[float]:
        """The bound toward ``target`` at every vertex, as Python floats."""
        xp = np_kernels._numpy
        rows = self.rows
        pivot = rows[:, target].tolist()
        bound = xp.zeros(rows.shape[1])
        term = xp.empty_like(bound)
        with xp.errstate(invalid="ignore"):  # inf - inf: no bound, skipped
            for row, at_target in zip(rows, pivot):
                xp.subtract(row, at_target, out=term)
                xp.fmax(bound, term, out=bound)
        # A Python-float vector: the kernel reads it once per push.
        return array("d", bound.tobytes())


def snapshot_landmarks(graph: Any) -> Optional[SnapshotLandmarks]:
    """The landmarks of ``graph``'s frozen snapshot, built on first use
    (counted by ``search.landmark_builds``).

    The build runs outside any active deadline: it is a once-per-snapshot
    cost, and a build cut short by one query's budget would be thrown away
    and restarted by the next miss.  Returns ``None`` — the Euclidean bound
    stays — when the graph has no valid frozen snapshot, numpy is missing
    or ``REPRO_KERNEL=csr``.
    """
    csr = frozen_csr(graph)
    if csr is None or csr.num_vertices == 0 or not np_kernels.np_available():
        return None
    if np_kernels.kernel_backend() == "csr":
        return None
    provider = csr._landmarks  # noqa: SLF001 - this module owns the slot
    if not isinstance(provider, SnapshotLandmarks):
        start = time.perf_counter()
        with use_deadline(None):
            provider = SnapshotLandmarks(csr)
        csr._landmarks = provider  # noqa: SLF001
        record_landmark_build(time.perf_counter() - start)
    return provider


def forget_vectors(graph: Any) -> None:
    """Empty the vector memo of ``graph``'s snapshot landmarks, if built.

    The parallel engine calls this at the start of every work unit: the
    memo is per process, and a unit must reuse (and count) the same
    vectors whichever process ran the units before it.
    """
    csr = frozen_csr(graph)
    provider = csr._landmarks if csr is not None else None  # noqa: SLF001
    if isinstance(provider, SnapshotLandmarks):
        provider._vectors.clear()  # noqa: SLF001


def landmark_heuristic(
    graph: Any, source: int, target: int
) -> Optional[Callable[[int], float]]:
    """The ALT bound toward ``target`` for a search from ``source`` on
    ``graph``'s frozen snapshot, or ``None`` (the caller's A* keeps the
    Euclidean bound) where :func:`snapshot_landmarks` has no landmarks or
    the query is shorter than :data:`MIN_LENGTH_SHARE` of the snapshot's
    extent.
    """
    provider = snapshot_landmarks(graph)
    if provider is None or graph.euclidean(source, target) < provider.min_length:
        return None
    return provider.heuristic(target)


def landmark_a_star(graph: Any, source: int, target: int) -> PathResult:
    """Exact A* from ``source`` to ``target`` under the snapshot's ALT bound,
    or under the Euclidean bound where :func:`landmark_heuristic` has none."""
    return a_star(graph, source, target, landmark_heuristic(graph, source, target))


class LandmarkIndex:
    """Distances to/from a set of landmarks, with an ALT heuristic factory."""

    def __init__(self, graph, num_landmarks: int = 8, seed: int = 0) -> None:
        if num_landmarks < 1:
            raise IndexConstructionError("need at least one landmark")
        if graph.num_vertices == 0:
            raise IndexConstructionError("cannot build landmarks on an empty graph")
        self.graph = graph
        self.graph_version = graph.version
        self.landmarks: List[int] = self._select(graph, num_landmarks, seed)
        #: dist_from[i][v] = d(L_i, v);  dist_to[i][v] = d(v, L_i)
        self.dist_from: List[List[float]] = [
            sssp_distances(graph, lm) for lm in self.landmarks
        ]
        self.dist_to: List[List[float]] = [
            sssp_distances(graph, lm, backward=True) for lm in self.landmarks
        ]

    @staticmethod
    def _select(graph, k: int, seed: int) -> List[int]:
        """Farthest-point selection: spread landmarks across the network."""
        rng = random.Random(seed)
        first = rng.randrange(graph.num_vertices)
        chosen = [first]
        while len(chosen) < min(k, graph.num_vertices):
            best_v = -1
            best_d = -1.0
            for v in range(graph.num_vertices):
                d = min(graph.euclidean(v, c) for c in chosen)
                if d > best_d:
                    best_d = d
                    best_v = v
            chosen.append(best_v)
        return chosen

    @property
    def stale(self) -> bool:
        """Whether the graph changed since construction (bounds may be invalid)."""
        return self.graph.version != self.graph_version

    def lower_bound(self, u: int, t: int) -> float:
        """ALT lower bound on d(u, t); exact heuristic for A*."""
        best = 0.0
        for i in range(len(self.landmarks)):
            df = self.dist_from[i]
            dt = self.dist_to[i]
            a = df[t] - df[u]
            if not math.isinf(df[t]) and not math.isinf(df[u]) and a > best:
                best = a
            b = dt[u] - dt[t]
            if not math.isinf(dt[u]) and not math.isinf(dt[t]) and b > best:
                best = b
        return best

    def heuristic_to(self, target: int) -> Callable[[int], float]:
        """A heuristic callable ``h(u) -> lower bound on d(u, target)``."""

        def h(u: int, _t=target) -> float:
            return self.lower_bound(u, _t)

        return h
