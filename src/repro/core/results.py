"""Result containers shared by all batch answering algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..queries.query import Query
from ..search.common import PathResult


@dataclass
class BatchAnswer:
    """The outcome of answering one decomposed query set.

    Attributes
    ----------
    method:
        Name of the answering algorithm (``"slc-s"``, ``"r2r-r"``...).
    answers:
        ``(query, result)`` pairs in processed order; duplicated queries
        appear once per occurrence.
    decompose_seconds / answer_seconds:
        The paper reports decomposition and query answering separately.
    visited:
        Total VNN across all searches run while answering.
    cache_hits / cache_misses:
        Cache accounting (zero for non-cache algorithms).
    cache_bytes:
        Total bytes of cache built (|GC| for the global cache, the sum over
        local caches otherwise).
    num_clusters:
        Cluster count of the decomposition that was answered.
    """

    method: str
    answers: List[Tuple[Query, PathResult]] = field(default_factory=list)
    decompose_seconds: float = 0.0
    answer_seconds: float = 0.0
    #: Time :meth:`repro.core.batch_runner.BatchProcessor.process` spent
    #: outside decomposition and answering: ``freeze()`` when it ran, the
    #: |GC| cache sizing and the decomposer's construction.  Not part of
    #: :attr:`total_seconds`.
    setup_seconds: float = 0.0
    visited: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    #: Largest single local cache built (defines the binding budget for the
    #: cache-size sweep of Fig 7-(c)/(e) at reproduction scale).
    max_cluster_cache_bytes: int = 0
    num_clusters: int = 0
    #: Queries answered through a singleton (unclustered) cluster — the
    #: paper's R_h excludes these from the hit-ratio denominator
    #: (Section VI); see :func:`repro.analysis.metrics.hit_ratio`.
    singleton_queries: int = 0
    #: Worker processes that produced this answer (1 = single-process).
    workers: int = 1
    #: The :class:`repro.parallel.ExecutionReport` of a multiprocess run,
    #: when one produced this answer (``None`` otherwise).
    execution_report: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return self.decompose_seconds + self.answer_seconds

    @property
    def num_queries(self) -> int:
        return len(self.answers)

    @property
    def hit_ratio(self) -> float:
        """Raw answered-from-cache fraction over *every* cache lookup.

        Singleton (unclustered) queries are included in the denominator
        here; the paper's Section VI definition of ``R_h`` excludes them —
        use :func:`repro.analysis.metrics.hit_ratio` for that.
        """
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def distances(self) -> Dict[Query, float]:
        """Best distance per distinct query (min across duplicates)."""
        out: Dict[Query, float] = {}
        for q, r in self.answers:
            if q not in out or r.distance < out[q]:
                out[q] = r.distance
        return out

    def approximate_answers(self) -> List[Tuple[Query, PathResult]]:
        return [(q, r) for q, r in self.answers if not r.exact]

    def summary(self) -> Dict[str, float]:
        return {
            "queries": float(self.num_queries),
            "clusters": float(self.num_clusters),
            "decompose_seconds": self.decompose_seconds,
            "answer_seconds": self.answer_seconds,
            "setup_seconds": self.setup_seconds,
            "total_seconds": self.total_seconds,
            "visited": float(self.visited),
            "hit_ratio": self.hit_ratio,
            "cache_mb": self.cache_bytes / (1024.0 * 1024.0),
            "workers": float(self.workers),
        }
