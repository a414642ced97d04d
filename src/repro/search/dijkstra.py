"""Dijkstra's algorithm and the bounded/one-to-many variants the paper needs.

Beyond the textbook point-to-point search, the batch algorithms rely on:

* *backward* searches on the reverse graph (R2R's ``rDij`` in Algorithm 2),
* *radius-bounded* ball collection (R2R stops at ``2 r*``),
* *one-to-many* searches that stop once a target set is exhausted
  (k-Path's per-region legs), and
* full single-source distance arrays (used by PLL, landmarks and tests).

All variants use a lazy-deletion binary heap, the standard pure-Python
approach, and count settled vertices as the VNN cost measure.

Dispatch
--------

Every entry point checks :func:`~repro.search.csr_kernels.frozen_csr`
first and, on a frozen snapshot, forwards to its one scalar CSR kernel;
the dict loop below is that kernel's differential oracle.  The only
vectorized path is :func:`batch_dijkstra`, which hands a multi-query
batch to the joint sweep :func:`~repro.search.np_kernels.
np_batch_dijkstra` when :func:`~repro.search.np_kernels.np_active` allows.

Accounting invariant: every kernel (dict, scalar CSR, numpy) flushes one
``record_search(settled, pushes, pushes + 1 - len(heap))`` — settled
vertices, strict tentative improvements, and non-stale pops — so
``workers=k`` fleet totals merge bit-identical to a serial run.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..obs import record_search
from ..resilience.deadline import CHECK_MASK, active_deadline
from .common import PathResult, reconstruct_path
from .csr_kernels import (
    csr_bounded_ball,
    csr_bounded_ball_tree,
    csr_dijkstra,
    csr_one_to_many,
    csr_sssp_distances,
    csr_sssp_tree,
    frozen_csr,
)
from . import np_kernels

Infinity = math.inf


def _rows(graph, backward: bool):
    return graph._radj if backward else graph._adj  # noqa: SLF001 - hot path


def dijkstra(graph, source: int, target: int, backward: bool = False) -> PathResult:
    """Point-to-point Dijkstra from ``source`` to ``target``.

    With ``backward=True`` the search runs on the reverse graph: the
    result reads "from source to target" there, which is the forward path
    from ``target`` to ``source`` reversed.
    """
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_dijkstra(csr, source, target, backward)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("dijkstra")
    adj = _rows(graph, backward)
    dist: Dict[int, float] = {source: 0.0}
    parents: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = 0
    pushes = 0
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        visited += 1
        if deadline is not None and visited & CHECK_MASK == 0:
            deadline.check("dijkstra")
        if u == target:
            record_search(visited, pushes, pushes + 1 - len(heap))
            return PathResult(source, target, d, reconstruct_path(parents, source, target), visited)
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd < dist.get(v, Infinity):
                dist[v] = nd
                parents[v] = u
                pushes += 1
                heappush(heap, (nd, v))
    # Unified heap-size form: the heap is empty here, so the value matches
    # the historical ``pushes + 1``, but the expression now states the
    # fleet-merge invariant the other return paths use.
    record_search(visited, pushes, pushes + 1 - len(heap))
    return PathResult(source, target, Infinity, [], visited)


def bounded_ball(
    graph,
    source: int,
    radius: float,
    backward: bool = False,
) -> Tuple[Dict[int, float], int]:
    """All vertices within ``radius`` of ``source`` and their distances.

    Returns ``(distances, visited)`` where ``distances[v] <= radius`` for all
    reported vertices.  This is the ``Dij(u*) < 2r*`` primitive in the R2R
    pseudo-code (Algorithm 2, lines 3-4).
    """
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_bounded_ball(csr, source, radius, backward)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("bounded-ball")
    adj = _rows(graph, backward)
    dist: Dict[int, float] = {source: 0.0}
    done: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = 0
    pushes = 0
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        if d > radius:
            break
        done[u] = d
        visited += 1
        if deadline is not None and visited & CHECK_MASK == 0:
            deadline.check("bounded-ball")
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd <= radius and nd < dist.get(v, Infinity):
                dist[v] = nd
                pushes += 1
                heappush(heap, (nd, v))
    record_search(visited, pushes, pushes + 1 - len(heap))
    return done, visited


def bounded_ball_tree(
    graph,
    source: int,
    radius: float,
    backward: bool = False,
) -> Tuple[Dict[int, float], Dict[int, int], int]:
    """:func:`bounded_ball` plus the shortest-path-tree parent map.

    R2R needs the actual leg paths (``q.s -> u*`` and ``v* -> q.t``), not
    just their lengths; the parent map reconstructs them.
    """
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_bounded_ball_tree(csr, source, radius, backward)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("bounded-ball")
    adj = _rows(graph, backward)
    dist: Dict[int, float] = {source: 0.0}
    parents: Dict[int, int] = {}
    done: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = 0
    pushes = 0
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        if d > radius:
            break
        done[u] = d
        visited += 1
        if deadline is not None and visited & CHECK_MASK == 0:
            deadline.check("bounded-ball")
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd <= radius and nd < dist.get(v, Infinity):
                dist[v] = nd
                parents[v] = u
                pushes += 1
                heappush(heap, (nd, v))
    record_search(visited, pushes, pushes + 1 - len(heap))
    return done, parents, visited


def one_to_many(
    graph,
    source: int,
    targets: Iterable[int],
    backward: bool = False,
) -> Tuple[Dict[int, float], Dict[int, int], int]:
    """Dijkstra from ``source`` until every vertex in ``targets`` is settled.

    Returns ``(distances, parents, visited)``; unreachable targets keep
    ``math.inf`` in ``distances``.
    """
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_one_to_many(csr, source, targets, backward)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("one-to-many")
    remaining = set(targets)
    adj = _rows(graph, backward)
    dist: Dict[int, float] = {source: 0.0}
    parents: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = 0
    pushes = 0
    found: Dict[int, float] = {}
    while heap and remaining:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        visited += 1
        if deadline is not None and visited & CHECK_MASK == 0:
            deadline.check("one-to-many")
        if u in remaining:
            remaining.discard(u)
            found[u] = d
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd < dist.get(v, Infinity):
                dist[v] = nd
                parents[v] = u
                pushes += 1
                heappush(heap, (nd, v))
    for t in remaining:
        found[t] = Infinity
    record_search(visited, pushes, pushes + 1 - len(heap))
    return found, parents, visited


def sssp_distances(graph, source: int, backward: bool = False) -> List[float]:
    """Full single-source shortest distances as a dense list.

    Used by landmark selection, PLL construction and as the ground truth in
    tests.  ``math.inf`` marks unreachable vertices.
    """
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_sssp_distances(csr, source, backward)
    n = graph.num_vertices
    adj = _rows(graph, backward)
    dist = [Infinity] * n
    dist[source] = 0.0
    done = [False] * n
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled = 0
    pushes = 0
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled += 1
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pushes += 1
                heappush(heap, (nd, v))
    record_search(settled, pushes, pushes + 1 - len(heap))
    return dist


def sssp_tree(graph, source: int, backward: bool = False) -> Tuple[List[float], Dict[int, int]]:
    """Full SSSP distances plus the parent map (for path extraction)."""
    csr = frozen_csr(graph)
    if csr is not None:
        return csr_sssp_tree(csr, source, backward)
    n = graph.num_vertices
    adj = _rows(graph, backward)
    dist = [Infinity] * n
    dist[source] = 0.0
    parents: Dict[int, int] = {}
    done = [False] * n
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled = 0
    pushes = 0
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled += 1
        for v, w in adj[u]:
            v = int(v)
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parents[v] = u
                pushes += 1
                heappush(heap, (nd, v))
    record_search(settled, pushes, pushes + 1 - len(heap))
    return dist, parents


def np_batch_active(graph, count: int) -> bool:
    """True when a ``count``-element batch would take a joint numpy sweep.

    Answerers that have a cheaper scalar fallback than a plain
    :func:`dijkstra` loop (e.g. Local Cache's per-query A*) use this to
    decide whether handing the batch to :func:`batch_dijkstra` is a win.
    """
    csr = frozen_csr(graph)
    return csr is not None and count > 1 and np_kernels.np_active(csr)


def batch_dijkstra(
    graph,
    pairs: Sequence[Tuple[int, int]],
    backward: bool = False,
) -> List[PathResult]:
    """Answer a batch of point-to-point queries, sharing work when possible.

    On a frozen snapshot with the numpy backend active the whole batch
    runs as one joint multi-row sweep
    (:func:`~repro.search.np_kernels.np_batch_dijkstra` — the
    shared-execution model); otherwise it is exactly a loop of
    :func:`dijkstra` calls.  Results align with ``pairs`` and are
    identical between the two paths.
    """
    if np_batch_active(graph, len(pairs)):
        csr = frozen_csr(graph)
        return np_kernels.np_batch_dijkstra(csr, pairs, backward)
    return [dijkstra(graph, s, t, backward) for s, t in pairs]
