"""High-level facade tying decomposition and answering together.

:class:`BatchProcessor` exposes every pipeline the paper evaluates under
the names used in Section VI:

===========  =================================  ==============================
name         decomposition                      answering
===========  =================================  ==============================
``astar``    none                               per-query A*
``astar-alt``  none                             per-query A*, miss heuristic
``dijkstra`` none                               per-query Dijkstra
``gc``       none (20 % log builds the cache)   Global Cache [29]
``zlc``      Zigzag                             Local Cache, longest-first
``slc-s``    Search-Space Estimation            Local Cache, longest-first
``slc-r``    Search-Space Estimation            Local Cache, random order
``r2r-s``    Co-Clustering                      R2R, longest representative
``r2r-r``    Co-Clustering                      R2R, random representative
``k-path``   Co-Clustering                      k-Path [21] (k = 1)
``zigzag-petal``  per-source petals             generalized A* [34]
``group``    Co-Clustering                      Group [25]
===========  =================================  ==============================

The local-cache methods size every cache at |GC|, a Global Cache built on
the first 20 % of the same batch (Section VI-A2).  That build searches its
log queries exactly; within one :meth:`BatchProcessor.process` call the
Local Cache's misses on the same pairs reuse those answers rather than
searching again.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import ConfigurationError
from ..queries.query import QuerySet
from .coclustering import CoClusteringDecomposer
from .local_cache import KnownAnswers, LocalCacheAnswerer
from .r2r import RegionToRegionAnswerer
from .results import BatchAnswer
from .search_space import SearchSpaceDecomposer
from .zigzag import ZigzagDecomposer

METHODS = (
    "astar",
    "astar-alt",
    "dijkstra",
    "gc",
    "zlc",
    "slc-s",
    "slc-r",
    "r2r-s",
    "r2r-r",
    "k-path",
    "zigzag-petal",
    "group",
)


class BatchProcessor:
    """One-stop runner for every batch method in the paper.

    Parameters
    ----------
    graph:
        The road network.
    cache_bytes:
        Per-cache byte budget for the local-cache methods; when ``None``
        it is taken from a Global Cache built on the same batch (the
        paper's |GC| protocol).
    eta:
        Error bound for co-clustering and R2R.
    delta:
        Angle threshold for Zigzag / SSE.
    seed:
        Seed for randomised variants.
    super_snap_radius:
        Super-vertex snap radius for the local caches (0 = exact).
    workers:
        Worker processes for answering.  ``workers > 1`` routes the
        deterministic decomposed pipelines (``zlc``, ``slc-s``, ``r2r-s``)
        through :class:`repro.parallel.ParallelBatchEngine`, one cluster
        per work unit; the merged answer is identical to the serial run.
        Methods whose processing order is randomised across clusters
        (``slc-r``, ``r2r-r``) and the undecomposed baselines stay
        single-process.
    frozen:
        When true (default) the graph is frozen to a CSR snapshot before
        answering, so every search runs the flat-array kernels and worker
        pools share the snapshot zero-copy (fork: copy-on-write; spawn:
        shared memory).  Answers are bit-identical either way; set false
        to force the mutable dict-graph paths.
    """

    #: Methods that ``workers > 1`` actually parallelises.
    PARALLEL_METHODS = ("zlc", "slc-s", "r2r-s")

    def __init__(
        self,
        graph,
        cache_bytes: Optional[int] = None,
        eta: float = 0.05,
        delta: float = 30.0,
        seed: int = 0,
        super_snap_radius: float = 0.0,
        log_fraction: float = 0.2,
        eviction: str = "none",
        workers: int = 1,
        engine_options: Optional[dict] = None,
        frozen: bool = True,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self.graph = graph
        self.cache_bytes = cache_bytes
        self.eta = eta
        self.delta = delta
        self.seed = seed
        self.super_snap_radius = super_snap_radius
        self.log_fraction = log_fraction
        self.eviction = eviction
        self.workers = workers
        self.frozen = frozen
        #: Extra :class:`repro.parallel.ParallelBatchEngine` kwargs
        #: (retry_policy, fault_plan, unit_timeout, breaker...).
        self.engine_options = dict(engine_options or {})

    # ------------------------------------------------------------------
    def process(self, queries: QuerySet, method: str) -> BatchAnswer:
        """Run one named pipeline over ``queries`` and return its answer.

        The answer's ``setup_seconds`` is the time spent outside
        decomposition and answering (see :class:`BatchAnswer`).
        """
        runner = self._runners().get(method)
        if runner is None:
            raise ConfigurationError(f"unknown method {method!r}; choose from {METHODS}")
        start = time.perf_counter()
        if self.frozen:
            # Cached by graph.version, so repeated process() calls on the
            # same snapshot freeze exactly once.
            self.graph.freeze()
        freeze_seconds = time.perf_counter() - start
        answer = runner(queries)
        answer.setup_seconds += freeze_seconds
        return answer

    def process_timed(
        self,
        arrivals,
        method: str = "slc-s",
        window_seconds: float = 1.0,
    ) -> List[BatchAnswer]:
        """Offline replay of a stamped arrival stream, window by window.

        Groups the stream into fixed scheduling windows (Definition 1)
        with :func:`~repro.queries.arrivals.window_batches` and runs each
        through :meth:`process`.  This is the batch-mode oracle the
        streaming service is differentially tested against: for exact
        methods the per-query distances must match the online run no
        matter how the micro-batcher sliced the stream.
        """
        from ..queries.arrivals import window_batches

        return [
            self.process(batch, method)
            for batch in window_batches(arrivals, window_seconds)
            if len(batch)
        ]

    def _runners(self) -> Dict[str, Callable[[QuerySet], BatchAnswer]]:
        # Imported here rather than at module scope: the baselines package
        # itself imports repro.core, so a top-level import would be circular.
        from ..baselines.one_by_one import OneByOneAnswerer
        from ..baselines.zigzag_petal import ZigzagPetalAnswerer

        return {
            "astar": lambda q: OneByOneAnswerer(self.graph, "astar").answer(q, "astar"),
            "astar-alt": lambda q: OneByOneAnswerer(self.graph, "astar-alt").answer(
                q, "astar-alt"
            ),
            "dijkstra": lambda q: OneByOneAnswerer(self.graph, "dijkstra").answer(
                q, "dijkstra"
            ),
            "gc": self._run_gc,
            "zlc": lambda q: self._run_local_cache(q, "zigzag", "longest", "zlc"),
            "slc-s": lambda q: self._run_local_cache(q, "sse", "longest", "slc-s"),
            "slc-r": lambda q: self._run_local_cache(q, "sse", "random", "slc-r"),
            "r2r-s": lambda q: self._run_r2r(q, "longest", "r2r-s"),
            "r2r-r": lambda q: self._run_r2r(q, "random", "r2r-r"),
            "k-path": self._run_kpath,
            "zigzag-petal": lambda q: ZigzagPetalAnswerer(self.graph, self.delta).answer(q),
            "group": self._run_group,
        }

    # ------------------------------------------------------------------
    def _resolve_cache_bytes(self, queries: QuerySet) -> Tuple[int, KnownAnswers]:
        """The paper's |GC| protocol: size the local caches like a GC build.

        Returns the budget and the exact answers the build searched, for
        the Local Cache to reuse on its misses; an explicit ``cache_bytes``
        skips the build, so there is nothing to reuse.
        """
        from ..baselines.global_cache import GlobalCacheAnswerer, split_log_and_stream

        if self.cache_bytes is not None:
            return self.cache_bytes, {}
        log, _ = split_log_and_stream(queries, self.log_fraction)
        gc = GlobalCacheAnswerer(self.graph)
        gc.build(log)
        return max(gc.cache_bytes, 1), gc.searched

    def _decomposer(self, kind: str):
        if kind == "zigzag":
            return ZigzagDecomposer(self.graph, delta=self.delta)
        if kind == "sse":
            return SearchSpaceDecomposer(self.graph, delta=self.delta)
        if kind == "cocluster":
            return CoClusteringDecomposer(self.graph, eta=self.eta)
        raise ConfigurationError(f"unknown decomposer kind {kind!r}")

    def _run_local_cache(self, queries: QuerySet, kind: str, order: str, label: str) -> BatchAnswer:
        start = time.perf_counter()
        cache_bytes, known = self._resolve_cache_bytes(queries)
        decomposer = self._decomposer(kind)
        setup_seconds = time.perf_counter() - start
        decomposition = decomposer.decompose(queries)
        answerer = LocalCacheAnswerer(
            self.graph,
            cache_bytes=cache_bytes,
            order=order,
            super_snap_radius=self.super_snap_radius,
            seed=self.seed,
            eviction=self.eviction,
        )
        if self.workers > 1 and label in self.PARALLEL_METHODS:
            answer = self._run_parallel(answerer, decomposition, label, known)
        else:
            answer = answerer.answer(decomposition, method=label, known=known)
        answer.setup_seconds = setup_seconds
        return answer

    def _run_r2r(self, queries: QuerySet, selection: str, label: str) -> BatchAnswer:
        decomposition = self._decomposer("cocluster").decompose(queries)
        answerer = RegionToRegionAnswerer(
            self.graph, eta=self.eta, selection=selection, seed=self.seed
        )
        if self.workers > 1 and label in self.PARALLEL_METHODS:
            return self._run_parallel(answerer, decomposition, label)
        return answerer.answer(decomposition, method=label)

    def _run_parallel(
        self, answerer, decomposition, label: str, known: Optional[KnownAnswers] = None
    ) -> BatchAnswer:
        # Imported lazily: repro.parallel pulls the answerers in, so a
        # module-scope import would be circular.
        from ..parallel import ParallelBatchEngine

        options = dict(self.engine_options)
        options.setdefault("shared_graph", self.frozen)
        with ParallelBatchEngine.from_answerer(
            answerer, workers=self.workers, **options
        ) as engine:
            return engine.execute(decomposition, method=label, known=known).answer

    def _run_kpath(self, queries: QuerySet) -> BatchAnswer:
        from ..baselines.kpath import KPathAnswerer

        decomposition = self._decomposer("cocluster").decompose(queries)
        return KPathAnswerer(self.graph).answer(decomposition)

    def _run_group(self, queries: QuerySet) -> BatchAnswer:
        from ..baselines.group import GroupAnswerer

        decomposition = self._decomposer("cocluster").decompose(queries)
        return GroupAnswerer(self.graph).answer(decomposition)

    def _run_gc(self, queries: QuerySet) -> BatchAnswer:
        from ..baselines.global_cache import GlobalCacheAnswerer, split_log_and_stream

        log, stream = split_log_and_stream(queries, self.log_fraction)
        gc = GlobalCacheAnswerer(self.graph)
        gc.build(log)
        answer = gc.answer(stream, method="gc")
        answer.decompose_seconds = gc.build_seconds
        return answer
