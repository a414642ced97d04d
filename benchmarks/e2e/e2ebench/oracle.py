"""Outputs checked against dict-graph Dijkstra, outside every timed region.

The oracle graph is the workload's own never-frozen copy, so the reference
runs the mutable dict kernels while the program runs the CSR/CCH ones.  An
answer that came out of a search must equal the oracle with ``==``; one
served from a path cache is a difference of two prefix sums and is held to
the repo's own oracle tolerance (``rel_tol=1e-9``) instead.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Tuple

from repro import StreamReport, dijkstra
from repro.queries.query import Query
from repro.search.common import PathResult

from .phases import Tally
from .workloads import Workload, make_timeline

#: BatchProcessor's default R2R error bound.
ETA = 0.05
SAMPLE = 500

Pair = Tuple[Query, PathResult]


def _agrees(result: PathResult, truth: float) -> bool:
    if not result.exact:
        return truth <= result.distance * (1 + 1e-12) and result.distance <= (1 + ETA) * truth
    if result.distance == truth:
        return True
    return result.visited == 0 and math.isclose(result.distance, truth, rel_tol=1e-9)


def _check(wl: Workload, pairs: Iterable[Pair], tally: Tally, where: str) -> None:
    for query, result in pairs:
        truth = dijkstra(wl.oracle_graph, query.source, query.target).distance
        tally.attempted += 1
        if not _agrees(result, truth):
            tally.failed += 1
            tally.wrong(
                f"{where}: {query.source}->{query.target} answered "
                f"{result.distance!r}, oracle {truth!r}"
            )


def _sample(pairs: List[Pair], seed: int, count: int) -> List[int]:
    return sorted(random.Random(seed).sample(range(len(pairs)), min(count, len(pairs))))


def check_stream(wl: Workload, report: StreamReport, tally: Tally, count: int = SAMPLE) -> None:
    """Re-answer a seeded sample of one simulated replay's answers.

    The report lists answers window by window, so with nothing shed or
    dead-lettered answer ``i`` belongs to the window whose running query
    count covers ``i``; the oracle's own same-seed timeline is advanced to
    each window's cut before that window's sample is checked.
    """
    if wl.oracle_graph.frozen_or_none() is not None:
        raise RuntimeError("oracle graph was frozen: the reference is not independent")
    if report.shed_degraded or report.dead_letters:
        tally.wrong("oracle needs a replay with nothing shed or dead-lettered")
        return
    timeline = make_timeline(wl.oracle_graph, wl.spec, wl.seed)
    picks = _sample(report.answers, wl.seed, count)
    start = 0
    at = 0
    for window in report.windows:
        if timeline is not None and window.cut_at > timeline.clock:
            timeline.advance_to(window.cut_at)
        end = start + window.queries
        chosen = []
        while at < len(picks) and picks[at] < end:
            chosen.append(report.answers[picks[at]])
            at += 1
        _check(wl, chosen, tally, f"window {window.index}")
        start = end


def check_batches(wl: Workload, answers, tally: Tally, count: int = SAMPLE) -> None:
    """Re-answer a seeded sample spread over one pass's batch answers."""
    share = -(-count // len(answers))
    for method, (_, answer) in answers.items():
        picks = _sample(answer.answers, wl.seed, share)
        _check(wl, (answer.answers[i] for i in picks), tally, method)
