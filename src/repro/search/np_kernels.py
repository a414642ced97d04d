"""The joint multi-row numpy sweep over frozen :class:`~repro.network.csr.CSRGraph`.

One kernel lives here, :func:`np_batch_dijkstra`: a whole batch of
point-to-point queries runs as **one bucketed delta-stepping sweep** whose
edge relaxations are single vectorized ``np.minimum.at`` scatters over
flat ``np.frombuffer`` views of the snapshot's CSR buffers.  Every query
is a row of one ``(rows, n)`` distance sheet, so the per-round
vectorization overhead amortizes across the batch — the shared-execution
model of batch processing realized at the kernel level.  Single searches
(one query, one ball, one one-to-many call) stay on the scalar CSR
kernels, which keep early exit and touch only the explored region.

Exactness contract
------------------

Distances are **bit-identical** to the dict/scalar kernels: every final
``dist[v]`` is produced by the same float expression ``dist[u] + w`` along
the same shortest path, and ``min`` over candidates is order-independent.
Paths and VNN counts are reconstructed post-hoc from the settled prefix
``{v : (dist[v], v) <= (dist[t], t)}`` of the ``(distance, vertex-id)``
settle order, which reproduces the heap's lazy-deletion behaviour exactly
whenever finite distances are distinct.  Exact float ties (zero-weight
clusters) keep every reported path a valid shortest path of identical
length, but the tie-break may differ from the heap's discovery order.

Accounting
----------

Every row flushes one :func:`repro.obs.record_search` with the unified
``(settled, relaxations, heap_pops)`` semantics: ``settled`` is the VNN
(identical to the dict kernels outside float ties), ``relaxations`` counts
improving edge relaxations (the analogue of heap pushes), and
``heap_pops`` counts frontier expansions (the analogue of non-stale
pops).  Totals are deterministic, so ``workers=k`` fleet merges stay
bit-identical to serial runs.  ``csr.np_*`` counters additionally record
the sweep's shape (buckets, rows, frontier sizes).

Backend selection
-----------------

``REPRO_KERNEL`` picks the backend: ``auto`` (default — the joint sweep
on snapshots of at least :data:`BATCH_MIN_VERTICES` vertices when numpy
is importable), ``np`` (require numpy; raise if missing) or ``csr``
(never use numpy; also pins the CCH's scalar customize loop and the
scalar grid build).  numpy is an optional extra (``pip install
repro[np]``); without it dispatch falls back transparently and answers
stay identical.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs import record_np_search, record_search
from ..resilience.deadline import active_deadline
from .common import PathResult

if TYPE_CHECKING:  # pragma: no cover
    from ..network.csr import CSRGraph

try:  # numpy is an optional extra: the batch entry point has a scalar fallback
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _numpy = None  # type: ignore[assignment]

Infinity = math.inf

#: numpy ndarray (kept ``Any`` so the module imports without numpy).
Array = Any

BACKEND_KNOB = "REPRO_KERNEL"
BACKENDS = ("auto", "np", "csr")

__all__ = [
    "BACKENDS",
    "BACKEND_KNOB",
    "BATCH_MIN_VERTICES",
    "kernel_backend",
    "np_active",
    "np_available",
    "np_batch_dijkstra",
    "warm_view",
]


def np_available() -> bool:
    """True when numpy imported successfully."""
    return _numpy is not None


def warm_view(csr: "CSRGraph") -> bool:
    """Eagerly build and cache the numpy view of ``csr``.

    Spawn workers call this right after attaching a shared-memory
    snapshot, so the first query unit does not pay view construction and
    buffer-export problems surface at pool init instead of mid-unit.
    Returns False (and does nothing) without numpy.
    """
    if _numpy is None:
        return False
    _view(csr)
    return True


def kernel_backend() -> str:
    """The validated ``REPRO_KERNEL`` value (re-read every call: tests flip it)."""
    raw = os.environ.get(BACKEND_KNOB, "auto")
    if raw not in BACKENDS:
        raise ConfigurationError(
            f"environment knob {BACKEND_KNOB}={raw!r} is not a valid kernel "
            f"backend; choose from {BACKENDS}"
        )
    return raw


#: ``auto`` crossover for the joint sweep: it amortizes each round across
#: the whole batch and beats a scalar per-query loop from ~1k vertices up
#: (2.1x on ``small``, 2.5x on ``medium``, 9x+ on ``xlarge`` at k=64).
BATCH_MIN_VERTICES = 512


def np_active(csr: "CSRGraph") -> bool:
    """Should a multi-row batch on this snapshot take the joint numpy sweep?

    ``np`` forces it, ``csr`` disables it, and ``auto`` uses it once the
    snapshot has at least :data:`BATCH_MIN_VERTICES` vertices.
    """
    backend = kernel_backend()
    if backend == "csr":
        return False
    if backend == "np":
        if _numpy is None:
            raise ConfigurationError(
                f"{BACKEND_KNOB}=np requires numpy, which is not installed; "
                f"install the optional extra (pip install repro[np])"
            )
        return True
    return _numpy is not None and csr.num_vertices >= BATCH_MIN_VERTICES


# ----------------------------------------------------------------------
# Per-snapshot numpy views of the flat CSR buffers
# ----------------------------------------------------------------------
class _NpView:
    """Zero-copy ``np.frombuffer`` views plus the sweep's bucket width."""

    __slots__ = (
        "csr",
        "findptr", "ftarget", "fweight",
        "rindptr", "rtarget", "rweight",
        "n", "m", "delta",
    )

    def __init__(self, csr: "CSRGraph") -> None:
        xp = _numpy
        self.csr = csr
        self.n = csr.num_vertices
        self.m = csr.num_edges
        self.findptr = xp.frombuffer(csr.findptr, dtype=xp.int32).astype(xp.int64)
        self.ftarget = xp.frombuffer(csr.ftarget, dtype=xp.int32)
        self.fweight = xp.frombuffer(csr.fweight, dtype=xp.float64)
        self.rindptr = xp.frombuffer(csr.rindptr, dtype=xp.int32).astype(xp.int64)
        self.rtarget = xp.frombuffer(csr.rtarget, dtype=xp.int32)
        self.rweight = xp.frombuffer(csr.rweight, dtype=xp.float64)
        positive = self.fweight[self.fweight > 0.0]
        # Bucket width: the mean positive weight keeps bucket counts near
        # the hop-diameter; an all-zero graph degrades to one bucket.
        self.delta = float(positive.mean()) if positive.size else Infinity

    def batch_delta(self, k: int) -> float:
        """Bucket width for a ``k``-row joint sweep.

        Wider buckets mean fewer synchronization rounds (each round pays
        fixed vectorization overhead) at the cost of some redundant
        re-relaxation inside a bucket; distances are exact for any width.
        With many rows the per-round overhead dominates, so the width
        grows with the batch until the re-relaxation cost catches up.
        """
        return self.delta * min(16.0, max(1.0, float(k)))

    def rows(self, backward: bool) -> Tuple[Array, Array, Array]:
        """(indptr, targets, weights) for the requested search direction."""
        if backward:
            return self.rindptr, self.rtarget, self.rweight
        return self.findptr, self.ftarget, self.fweight

    def in_rows(self, backward: bool) -> Tuple[Array, Array, Array]:
        """In-edge arrays of the search direction (for parent recovery)."""
        return self.rows(not backward)


def _view(csr: "CSRGraph") -> _NpView:
    ws = csr._npview  # noqa: SLF001 - kernels own this slot
    if type(ws) is not _NpView or ws.n != csr.num_vertices:
        ws = _NpView(csr)
        csr._npview = ws  # noqa: SLF001
    return ws


# ----------------------------------------------------------------------
# Core sweep
# ----------------------------------------------------------------------
class _SweepStats:
    """Deterministic work counters for one sweep (accounting analogues)."""

    __slots__ = ("buckets", "expanded", "improved")

    def __init__(self) -> None:
        self.buckets = 0
        self.expanded = 0
        self.improved = 0


def _edge_gather(indptr: Array, frontier: Array) -> Tuple[Array, Array]:
    """``(rep, eidx)``: per-edge frontier positions and flat edge indices."""
    xp = _numpy
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = xp.empty(0, dtype=xp.int64)
        return empty, empty
    rep = xp.repeat(xp.arange(frontier.size, dtype=xp.int64), counts)
    offs = xp.arange(total, dtype=xp.int64) - xp.repeat(
        xp.cumsum(counts) - counts, counts
    )
    return rep, starts[rep] + offs


def _joint_sweep(
    indptr: Array,
    targets: Array,
    weights: Array,
    dist: Array,
    seeds: Array,
    row_targets: Array,
    n: int,
    k: int,
    delta: float,
) -> Tuple[_SweepStats, Array, Array]:
    """Bucketed delta-stepping over a flat ``(k, n)`` distance sheet.

    ``dist`` holds ``k`` row-major search rows (seeds pre-set to 0 in flat
    coordinates).  The frontier lives in compact index arrays — never a
    full-sheet mask — so per-round cost tracks the frontier's edge volume,
    not ``k * n``; this is what lets one joint sweep serve a whole batch
    of rows profitably.

    Improved vertices whose new tentative distance lands beyond the bucket
    boundary ``top`` are deferred to a pending pool, deduplicated once per
    bucket.  A deferred entry can go stale (its vertex improves again and
    expands earlier); stale entries re-expand as no-ops, which never
    changes a distance — only the (still deterministic) work counters.

    ``row_targets`` (one flat id per row) retires each row at the first
    bucket boundary that finalizes its target — at that point every vertex
    with final distance below ``top`` is settled — dropping the row's
    pending entries.  The cooperative deadline is checked on entry and
    once per bucket.
    """
    xp = _numpy
    stats = _SweepStats()
    row_expanded = xp.zeros(k, dtype=xp.int64)
    row_improved = xp.zeros(k, dtype=xp.int64)
    deadline = active_deadline()
    if deadline is not None:
        deadline.check("dijkstra")
    alive = xp.ones(k, dtype=bool)

    # O(size) set dedup via scatter-stamp: tokens are globally unique, so
    # the mark sheet never needs resetting and a slot survives as "mine"
    # only for the id that wrote it last.  Replaces sort/hash ``unique``
    # in the hot loop (dedup order differs, but every consumer below is
    # order-independent: min/scatter reductions and bincounts).
    mark = xp.zeros(dist.size, dtype=xp.int64)
    next_token = 1

    def _dedup(ids: Array) -> Array:
        nonlocal next_token
        tok = xp.arange(next_token, next_token + ids.size)
        next_token += ids.size
        mark[ids] = tok
        keep: Array = ids[mark[ids] == tok]
        return keep

    pending: List[Array] = [seeds.astype(xp.int64)]
    while pending:
        if deadline is not None:
            deadline.check("dijkstra")
        # A lone carry-over array is already deduplicated (it is a subset
        # of the previous bucket's deduplicated pool).
        pend = pending[0] if len(pending) == 1 else _dedup(xp.concatenate(pending))
        if not bool(alive.all()):
            pend = pend[alive[pend // n]]
        if pend.size == 0:
            break
        dp = dist[pend]
        top = float(dp.min()) + delta
        in_bucket = dp < top
        frontier = pend[in_bucket]
        later = pend[~in_bucket]
        pending = [later] if later.size else []
        stats.buckets += 1
        while frontier.size:
            stats.expanded += int(frontier.size)
            row_expanded += xp.bincount(frontier // n, minlength=k)
            verts = frontier % n
            rep, eidx = _edge_gather(indptr, verts)
            if eidx.size == 0:
                break
            heads = targets[eidx] + (frontier - verts)[rep]
            cand = dist[frontier][rep] + weights[eidx]
            sel = cand < dist[heads]
            heads = heads[sel]
            if heads.size == 0:
                break
            xp.minimum.at(dist, heads, cand[sel])
            stats.improved += int(heads.size)
            row_improved += xp.bincount(heads // n, minlength=k)
            improved = _dedup(heads)
            go = dist[improved] < top
            frontier = improved[go]
            defer = improved[~go]
            if defer.size:
                pending.append(defer)
        alive &= ~(dist[row_targets] < top)
        if not bool(alive.any()):
            break
    return stats, row_expanded, row_improved


# ----------------------------------------------------------------------
# Settle-order reconstruction (prefix counts and exact-tie parent maps)
# ----------------------------------------------------------------------
def _settled_prefix_count(dist: Array, last_dist: float, last_vertex: int) -> int:
    """How many vertices settle up to and including ``last_vertex``.

    Settle order is ``(distance, vertex-id)``; the count is exact whenever
    finite distances are distinct (see the module exactness contract).
    """
    xp = _numpy
    below = int(xp.count_nonzero(dist < last_dist))
    at = int(xp.count_nonzero(dist[: last_vertex + 1] == last_dist))
    return below + at


def _resolve_parents(
    view: _NpView,
    backward: bool,
    dist: Array,
    verts: Array,
    eligible: Array,
    source: int,
) -> Dict[int, int]:
    """Exact shortest-path-tree parents for ``verts``.

    ``parent[v]`` is the minimum ``(dist[u], u)`` in-neighbour achieving
    ``dist[u] + w == dist[v]`` — the first strict improver in heap pop
    order, i.e. the dict kernels' parent whenever distances are distinct.
    Zero-weight ties resolve iteratively (a candidate at equal distance is
    only accepted once it has a parent itself), which guarantees the
    result is an acyclic tree even inside zero-weight clusters.
    """
    xp = _numpy
    indptr, tg, wt = view.in_rows(backward)
    parents: Dict[int, int] = {}
    resolved = xp.zeros(view.n, dtype=bool)
    resolved[source] = True
    todo = verts
    want_todo = dist[verts]
    for _ in range(view.n + 1):
        if todo.size == 0:
            break
        rep, eidx = _edge_gather(indptr, todo)
        if eidx.size == 0:
            break
        cand = tg[eidx].astype(xp.int64)
        du = dist[cand]
        ok = eligible[cand] & (du + wt[eidx] == want_todo[rep])
        # Equal-distance (zero-weight) candidates must themselves be
        # resolved already; strictly closer candidates are always safe.
        ok &= (du < want_todo[rep]) | resolved[cand]
        rep, cand, du = rep[ok], cand[ok], du[ok]
        if rep.size == 0:
            break
        order = xp.lexsort((cand, du, rep))
        rep_s = rep[order]
        uniq, first = xp.unique(rep_s, return_index=True)
        chosen_v = todo[uniq]
        chosen_p = cand[order][first]
        parents.update(zip(chosen_v.tolist(), chosen_p.tolist()))
        resolved[chosen_v] = True
        keep = ~resolved[todo]
        todo = todo[keep]
        want_todo = want_todo[keep]
    return parents


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def _walk_path(
    view: _NpView, backward: bool, dist: Array, source: int, target: int
) -> Optional[List[int]]:
    """Back-walk ``target -> source`` along minimum ``(dist, id)`` improvers.

    Each step picks the same in-neighbour :func:`_resolve_parents` would
    (the minimum ``(dist[u], u)`` strict improver with
    ``dist[u] + w == dist[v]``), but touches only the actual chain instead
    of resolving a parent for every settled vertex — the scalar CSR
    buffers make each step a handful of array lookups.  Returns ``None``
    when a step has no *strict* improver (an exact zero-weight tie on the
    chain), in which case the caller falls back to the iterative resolver.
    """
    csr = view.csr
    if backward:
        indptr, tgt, wts = csr.findptr, csr.ftarget, csr.fweight
    else:
        indptr, tgt, wts = csr.rindptr, csr.rtarget, csr.rweight
    path = [target]
    v = target
    while v != source:
        dv = float(dist[v])
        best_u = -1
        best_du = 0.0
        for e in range(indptr[v], indptr[v + 1]):
            u = tgt[e]
            du = float(dist[u])
            if du < dv and du + wts[e] == dv:
                if best_u < 0 or du < best_du or (du == best_du and u < best_u):
                    best_u = u
                    best_du = du
        if best_u < 0:
            return None
        v = best_u
        path.append(v)
    path.reverse()
    return path


def _p2p_result(
    view: _NpView,
    backward: bool,
    dist: Array,
    source: int,
    target: int,
    improved: int,
    expanded: int,
) -> PathResult:
    """Turn one settled distance row into a :class:`PathResult` + accounting."""
    xp = _numpy
    if not math.isfinite(dist[target]):
        settled = int(xp.count_nonzero(xp.isfinite(dist)))
        record_search(settled, improved, expanded)
        return PathResult(source, target, Infinity, [], settled)
    d_t = float(dist[target])
    visited = _settled_prefix_count(dist, d_t, target)
    record_search(visited, improved, expanded)
    path = _walk_path(view, backward, dist, source, target)
    if path is None:
        # Zero-weight tie on the chain: resolve the full settled prefix
        # with the exact iterative parent map (guaranteed acyclic).
        settled_mask = xp.isfinite(dist) & (dist <= d_t)
        verts = xp.flatnonzero(settled_mask)
        verts = verts[verts != source]
        parents = _resolve_parents(view, backward, dist, verts, settled_mask, source)
        path = [target]
        v = target
        while v != source:
            v = parents[v]
            path.append(v)
        path.reverse()
    return PathResult(source, target, d_t, path, visited)


def np_batch_dijkstra(
    csr: "CSRGraph",
    pairs: Sequence[Tuple[int, int]],
    backward: bool = False,
) -> List[PathResult]:
    """Answer a whole batch of point-to-point queries in one joint sweep.

    This is the shared-execution kernel: every query is a row of one flat
    ``(rows, n)`` distance sheet and all rows advance through shared
    bucketed rounds, so the vectorized edge gather amortizes across the
    batch — per-query level-synchronous sweeps cannot beat the heap on a
    high-diameter road network, but a joint frontier of many queries can.
    A row stops contributing (its pending slice is cleared) at the first
    bucket boundary that finalizes its target.  Results align with
    ``pairs``; each is bit-identical to :func:`~repro.search.dijkstra.
    dijkstra` on the same query (see the exactness contract), and each row
    flushes its own :func:`record_search`.
    """
    xp = _numpy
    view = _view(csr)
    n = view.n
    results: List[Optional[PathResult]] = [None] * len(pairs)
    live: List[int] = []
    for i, (s, t) in enumerate(pairs):
        if s == t:
            record_search(1, 0, 1)
            results[i] = PathResult(s, t, 0.0, [s], 1)
        else:
            live.append(i)
    if not live:
        record_np_search("batch-dijkstra", 0, 0, 0, rows=len(pairs))
        return [r for r in results if r is not None]
    k = len(live)
    indptr, tg, wt = view.rows(backward)
    dist = xp.full(k * n, Infinity)
    seeds = xp.empty(k, dtype=xp.int64)
    tflat = xp.empty(k, dtype=xp.int64)
    for r, i in enumerate(live):
        seeds[r] = r * n + pairs[i][0]
        tflat[r] = r * n + pairs[i][1]
    dist[seeds] = 0.0
    stats, row_expanded, row_improved = _joint_sweep(
        indptr, tg, wt, dist, seeds, tflat, n, k, view.batch_delta(k)
    )
    record_np_search("batch-dijkstra", stats.buckets, stats.expanded,
                     stats.improved, rows=k)
    for r, i in enumerate(live):
        s, t = pairs[i]
        results[i] = _p2p_result(
            view, backward, dist[r * n : (r + 1) * n], s, t,
            int(row_improved[r]), int(row_expanded[r]),
        )
    return [r for r in results if r is not None]
