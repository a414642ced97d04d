"""Region-to-Region approximate batch answering (Section V-B, Algorithm 2).

Given a dumbbell-shaped query cluster, R2R repeatedly:

1. picks a representative query ``(u*, v*)`` from the remaining queries —
   the *longest* (R2R-S) or a *random* one (R2R-R);
2. answers it exactly with A* to get ``d(u*, v*)`` and derives the region
   radius ``2 r* = 2 * eta * d / (8 + 4 eta)`` (Theorem 1 allows the factor
   2 because only the fixed representative anchors the approximation);
3. collects the candidate source set ``C_s`` — vertices within ``2 r*`` of
   ``u*`` in *both* directions (forward and backward bounded Dijkstras, per
   the diameter definition) — and symmetrically ``C_t`` around ``v*``;
4. answers every remaining query with ``s in C_s`` and ``t in C_t`` by the
   three-leg concatenation ``d(s, u*) + d(u*, v*) + d(v*, t)``, whose
   relative error is bounded by eta.

Unanswered queries stay in the pool and seed later rounds, so the loop
terminates: each round removes at least its representative.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from ..obs import get_registry
from ..exceptions import ConfigurationError
from ..queries.query import Query
from ..search.astar import a_star
from ..search.common import PathResult, reconstruct_path
from ..search.dijkstra import bounded_ball_tree
from .clusters import Decomposition, QueryCluster
from .results import BatchAnswer
from .wspd import region_radius

SELECTION = ("longest", "random")


class RegionToRegionAnswerer:
    """Error-bounded region-to-region batch answering.

    Parameters
    ----------
    graph:
        The road network.
    eta:
        Global relative error bound (paper: 0.05).
    selection:
        ``"longest"`` for R2R-S, ``"random"`` for R2R-R.
    seed:
        RNG seed for random selection.
    build_paths:
        When ``True`` the three-leg concatenated *path* is materialised for
        every approximate answer; distances are always produced.
    """

    def __init__(
        self,
        graph,
        eta: float = 0.05,
        selection: str = "longest",
        seed: int = 0,
        build_paths: bool = True,
    ) -> None:
        if selection not in SELECTION:
            raise ConfigurationError(f"selection must be one of {SELECTION}")
        if not 0.0 < eta < 1.0:
            raise ConfigurationError(f"eta must be in (0, 1), got {eta}")
        self.graph = graph
        self.eta = eta
        self.selection = selection
        self.seed = seed
        self.build_paths = build_paths

    def spec(self):
        """``(kind, kwargs)`` from which a worker process can rebuild me."""
        return "r2r", {
            "eta": self.eta,
            "selection": self.selection,
            "seed": self.seed,
            "build_paths": self.build_paths,
        }

    # ------------------------------------------------------------------
    def answer(self, decomposition: Decomposition, method: Optional[str] = None) -> BatchAnswer:
        label = method or f"r2r[{self.selection}]"
        batch = BatchAnswer(
            method=label,
            decompose_seconds=decomposition.elapsed_seconds,
            num_clusters=len(decomposition.clusters),
        )
        start = time.perf_counter()
        rng = random.Random(self.seed)
        with get_registry().span("answer", method=label):
            for cluster in decomposition:
                batch.answers.extend(self._answer_cluster(cluster, rng, batch))
                if len(cluster) == 1:
                    batch.singleton_queries += 1
        batch.answer_seconds = time.perf_counter() - start
        return batch

    # ------------------------------------------------------------------
    def _pick_representative(self, pending: List[Query], rng: random.Random) -> Query:
        if self.selection == "random":
            return pending[rng.randrange(len(pending))]
        graph = self.graph
        return max(pending, key=lambda q: graph.euclidean(q.source, q.target))

    def _answer_cluster(
        self, cluster: QueryCluster, rng: random.Random, batch: BatchAnswer
    ) -> List[Tuple[Query, PathResult]]:
        graph = self.graph
        pending: List[Query] = list(dict.fromkeys(cluster.queries))
        counts: Dict[Query, int] = {}
        for q in cluster.queries:
            counts[q] = counts.get(q, 0) + 1
        out: List[Tuple[Query, PathResult]] = []

        def emit(q: Query, result: PathResult) -> None:
            for _ in range(counts.get(q, 1)):
                out.append((q, result))

        while pending:
            rep = self._pick_representative(pending, rng)
            pending.remove(rep)
            exact = a_star(graph, rep.source, rep.target)
            batch.visited += exact.visited
            emit(rep, exact)
            if not exact.found or not pending:
                continue

            bound = region_radius(self.eta, exact.distance)
            u_star, v_star = rep.source, rep.target
            # C_s: within 2r* of u* both forward and backward (Algorithm 2
            # l.3); C_t likewise around v* (l.4).
            fwd_u, _, vis1 = bounded_ball_tree(graph, u_star, bound)
            bwd_u, par_bu, vis2 = bounded_ball_tree(graph, u_star, bound, True)
            fwd_v, par_fv, vis3 = bounded_ball_tree(graph, v_star, bound)
            bwd_v, _, vis4 = bounded_ball_tree(graph, v_star, bound, True)
            batch.visited += vis1 + vis2 + vis3 + vis4
            c_s = {v for v in bwd_u if v in fwd_u}
            c_t = {v for v in fwd_v if v in bwd_v}

            still_pending: List[Query] = []
            for q in pending:
                if q.source in c_s and q.target in c_t:
                    distance = bwd_u[q.source] + exact.distance + fwd_v[q.target]
                    path: List[int] = []
                    if self.build_paths:
                        path = self._three_leg_path(
                            q, rep, exact.path, par_bu, par_fv
                        )
                    emit(
                        q,
                        PathResult(
                            q.source, q.target, distance, path, visited=0, exact=False
                        ),
                    )
                else:
                    still_pending.append(q)
            pending = still_pending
        return out

    def _three_leg_path(
        self,
        q: Query,
        rep: Query,
        rep_path: List[int],
        par_bwd_u: Dict[int, int],
        par_fwd_v: Dict[int, int],
    ) -> List[int]:
        """Concatenate ``q.s -> u* -> v* -> q.t`` into one vertex walk.

        The backward tree from ``u*`` stores, for each vertex ``x``, the
        next hop toward ``u*`` along the shortest ``x -> u*`` path; walking
        it from ``q.s`` yields the first leg directly.
        """
        leg1: List[int] = [q.source]
        v = q.source
        while v != rep.source:
            v = par_bwd_u[v]
            leg1.append(v)
        leg3 = reconstruct_path(par_fwd_v, rep.target, q.target)
        # rep_path starts at u* (= leg1[-1]) and ends at v* (= leg3[0]).
        return leg1[:-1] + rep_path + leg3[1:]
