"""Shared machinery for the correctness fleet.

The metamorphic and differential suites run many randomized cases per
algorithm pair; to keep that affordable in tier-1 they draw small graphs
from a fixed pool and iterate every decomposer/algorithm inside one test
body, so 200 Hypothesis examples yield 200 cases *per pair*.

The explicit :data:`CORRECTNESS` settings object (rather than a
``settings.load_profile`` call) keeps this suite deterministic without
fighting the profile selection in ``tests/property/conftest.py`` — both
conftests would otherwise race to load a global profile.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from hypothesis import HealthCheck, settings, strategies as st

from repro.network.generators import beijing_like, grid_city, ring_radial_city
from repro.queries.workload import WorkloadGenerator
from repro.search.dijkstra import dijkstra

#: Deterministic, database-free settings applied per test: every run
#: replays the same 200 examples, so failures reproduce everywhere.
CORRECTNESS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Small-but-distinct road networks: jittered grids (the paper's dense
#: urban core), a ring-radial city, and the tiny Beijing-like composite.
GRAPH_POOL = {
    "grid4": grid_city(4, 4, seed=11),
    "grid5": grid_city(5, 5, seed=23),
    "ring": ring_radial_city(rings=3, spokes=6, seed=31),
    "tiny": beijing_like("tiny", seed=5),
}

_WORKLOADS: Dict[Tuple[str, int], WorkloadGenerator] = {}


def workload_for(graph_key: str, seed: int) -> WorkloadGenerator:
    """A cached workload generator per (graph, seed) pair."""
    key = (graph_key, seed)
    if key not in _WORKLOADS:
        _WORKLOADS[key] = WorkloadGenerator(GRAPH_POOL[graph_key], seed=seed)
    return _WORKLOADS[key]


@st.composite
def graph_key_and_batch(draw, min_size: int = 4, max_size: int = 24):
    """Draw a graph key plus a query batch generated on that graph."""
    graph_key = draw(st.sampled_from(sorted(GRAPH_POOL)))
    seed = draw(st.integers(min_value=0, max_value=50))
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    batch = workload_for(graph_key, seed).batch(size)
    return graph_key, batch


@st.composite
def graph_key_and_pair(draw):
    """Draw a graph key plus one (source, target) vertex pair."""
    graph_key = draw(st.sampled_from(sorted(GRAPH_POOL)))
    graph = GRAPH_POOL[graph_key]
    n = graph.num_vertices
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    return graph_key, source, target


def assert_records_replay(report, offline_graph, offline_timeline) -> None:
    """Slice a stream report's answers by its records and check each
    against Dijkstra on ``offline_graph``, with ``offline_timeline`` (a
    same-seed twin of the run's own) advanced to the record's ``cut_at``:
    every answer was computed under the metric its record's instant names.
    """
    offset = 0
    for w in report.windows:
        if w.cut_at > offline_timeline.clock:
            offline_timeline.advance_to(w.cut_at)
        for q, r in report.answers[offset:offset + w.queries]:
            truth = dijkstra(offline_graph, q.source, q.target).distance
            assert math.isclose(
                r.distance, truth, rel_tol=1e-9, abs_tol=1e-12
            ), (
                f"{w.trigger} record cut {w.cut_at!r}: {q.source}->{q.target} "
                f"answered {r.distance!r}, offline replay says {truth!r}"
            )
        offset += w.queries
    assert offset == len(report.answers) > 0
