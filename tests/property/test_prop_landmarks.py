"""Property: the landmark miss heuristic stays exact across weight epochs.

Hypothesis interleaves traffic epochs (``congestion_snapshot``,
``recovery_snapshot``) and single-edge ``set_weight`` changes in both
directions with Local Cache misses on the frozen graph.  Every miss must
equal dict Dijkstra on an unfrozen copy of the same weights (``==``), and
a new ``graph.version`` must never reuse an earlier snapshot's landmarks:
the bound is only valid for the weights it was built on.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cache import PathCache
from repro.core.clusters import QueryCluster
from repro.core.local_cache import LocalCacheAnswerer
from repro.network.generators import beijing_like
from repro.network.timeline import (
    TrafficTimeline,
    congestion_snapshot,
    recovery_snapshot,
)
from repro.queries.query import Query
from repro.search.dijkstra import dijkstra
from repro.search.np_kernels import kernel_backend, np_available

BASE = beijing_like("tiny", seed=5)
N = BASE.num_vertices
M = BASE.num_edges

step = st.one_of(
    st.tuples(st.just("congest"), st.floats(0.05, 0.5)),
    st.tuples(st.just("recover"), st.just(0.0)),
    st.tuples(st.just("up"), st.integers(0, M - 1), st.floats(1.0, 6.0)),
    st.tuples(st.just("down"), st.integers(0, M - 1), st.floats(0.2, 1.0)),
    st.tuples(st.just("miss"), st.integers(0, N - 1), st.integers(0, N - 1)),
)


@given(st.lists(step, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_lc_misses_exact_across_epochs(program):
    graph = BASE.copy()
    timeline = TrafficTimeline(graph, seed=7)
    edges = [(u, v) for u, v, _ in graph.edges()]
    answerer = LocalCacheAnswerer(graph)
    providers = []  # every snapshot's landmarks seen so far, oldest first
    clock = 0.0
    for op, *args in program:
        if op in ("congest", "recover"):
            clock += 1.0
            if op == "congest":
                timeline.schedule(clock, congestion_snapshot(args[0]))
            else:
                timeline.schedule(clock, recovery_snapshot())
            timeline.advance_to(clock)
        elif op in ("up", "down"):
            u, v = edges[args[0]]
            graph.set_weight(u, v, graph.weight(u, v) * args[1])
        else:
            s, t = args
            csr = graph.freeze()
            ((_, got),) = answerer.answer_cluster(
                QueryCluster([Query(s, t)]), PathCache(graph)
            )
            want = dijkstra(graph.copy(), s, t)  # the copy is never frozen
            assert got.distance == want.distance
            assert got.path == want.path
            provider = csr._landmarks  # noqa: SLF001
            if np_available() and kernel_backend() != "csr":
                assert provider is not None
            if provider is not None and (not providers or providers[-1] is not provider):
                assert all(provider is not old for old in providers)
                providers.append(provider)
    assert len(providers) <= 1 + sum(1 for op, *_ in program if op != "miss")

