"""A* search with an admissible Euclidean heuristic.

The heuristic is ``graph.heuristic(u, t)``, i.e. the Euclidean distance
scaled by the graph-wide minimum weight/Euclidean ratio, which keeps the
search exact for travel-time weights as well as distance weights.  A custom
heuristic callable (e.g. an ALT landmark bound) can be supplied instead.
Every call counts once under ``search.heuristic.euclid`` (no callable) or
``search.heuristic.alt`` (a supplied bound; in the package that is always
:func:`repro.search.landmarks.landmark_heuristic`).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs import record_heuristic, record_search
from ..resilience.deadline import CHECK_MASK, active_deadline
from .common import PathResult, reconstruct_path
from .csr_kernels import csr_a_star, frozen_csr

Heuristic = Callable[[int], float]


def a_star(
    graph,
    source: int,
    target: int,
    heuristic: Optional[Heuristic] = None,
) -> PathResult:
    """Exact point-to-point A* from ``source`` to ``target``.

    ``heuristic`` maps a vertex to an admissible lower bound on its distance
    to ``target``; when omitted the graph's scaled Euclidean bound is used.
    """
    record_heuristic(heuristic is not None)
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_a_star(csr, source, target, heuristic)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("a-star")
    if heuristic is None:
        tx, ty = graph.coord(target)
        scale = graph.heuristic_scale
        xs, ys = graph.xs, graph.ys

        def heuristic(u: int, _tx=tx, _ty=ty, _s=scale, _xs=xs, _ys=ys) -> float:
            return math.hypot(_xs[u] - _tx, _ys[u] - _ty) * _s

    dist: Dict[int, float] = {source: 0.0}
    parents: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(heuristic(source), source)]
    adj = graph._adj  # noqa: SLF001 - hot path
    visited = 0
    pushes = 0
    while heap:
        f, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        visited += 1
        if deadline is not None and visited & CHECK_MASK == 0:
            deadline.check("a-star")
        if u == target:
            record_search(visited, pushes, pushes + 1 - len(heap))
            return PathResult(
                source, target, dist[u], reconstruct_path(parents, source, target), visited
            )
        du = dist[u]
        for v, w in adj[u]:
            v = int(v)
            if v in done:
                continue
            nd = du + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parents[v] = u
                pushes += 1
                heappush(heap, (nd + heuristic(v), v))
    # Unified heap-size form (heap drained here; see dijkstra module doc).
    record_search(visited, pushes, pushes + 1 - len(heap))
    return PathResult(source, target, math.inf, [], visited)
