"""The per-query baseline: answer every query independently.

This is the paper's ``A*`` comparator — no decomposition, no sharing — and
also the ground-truth oracle the error metrics are computed against
(optionally with plain Dijkstra for paranoia-level verification).
``astar-alt`` searches with the Local Cache's miss heuristic instead: the
frozen snapshot's landmark bound on queries long enough for it, so the
paper's methods can be compared against both bounds.
"""

from __future__ import annotations

import time
from typing import Optional

from ..exceptions import ConfigurationError
from ..queries.query import QuerySet
from ..search.astar import a_star
from ..search.dijkstra import dijkstra
from ..search.landmarks import landmark_a_star
from ..core.results import BatchAnswer

ALGORITHMS = ("astar", "astar-alt", "dijkstra")
_SEARCHES = {"astar": a_star, "astar-alt": landmark_a_star, "dijkstra": dijkstra}


class OneByOneAnswerer:
    """Answer a query set query-by-query with A* (or Dijkstra)."""

    def __init__(self, graph, algorithm: str = "astar") -> None:
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        self.graph = graph
        self.algorithm = algorithm

    def spec(self):
        """``(kind, kwargs)`` from which a worker process can rebuild me."""
        return "one-by-one", {"algorithm": self.algorithm}

    def answer(self, queries: QuerySet, method: Optional[str] = None) -> BatchAnswer:
        batch = BatchAnswer(method=method or self.algorithm, num_clusters=len(queries))
        start = time.perf_counter()
        search = _SEARCHES[self.algorithm]
        for q in queries:
            result = search(self.graph, q.source, q.target)
            batch.answers.append((q, result))
            batch.visited += result.visited
        batch.answer_seconds = time.perf_counter() - start
        return batch
