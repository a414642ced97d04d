"""Figure 7-(d): batch answering time of A*, GC, ZLC, SLC-R, SLC-S.

Paper shape: the cache-based methods answer the batch faster than plain
per-query A* once the batch is large enough for hits to amortise the cache
overhead, with SLC-S the strongest local variant.

The frozen series answers the same streams on a frozen copy, where the
Local Cache misses search under the snapshot's landmark bound, beside
``astar-alt`` (per-query A* under that bound).
"""

from conftest import publish

from repro.analysis import experiments as exp
from repro.baselines.one_by_one import OneByOneAnswerer


def test_fig7d_query_time(benchmark, env, sizes, cache_suites, frozen_cache_suites):
    result = exp.run_fig7d(env, cache_suites)
    publish(result)
    vnn = exp.run_fig7d_vnn(env, cache_suites)
    publish(vnn)

    # Deterministic shape (VNN): caches search strictly less than A*.
    vnn_last = {m: s[-1] for m, s in vnn.series.items()}
    assert vnn_last["slc-s"] < vnn_last["astar"]
    assert vnn_last["zlc"] < vnn_last["astar"]
    assert vnn_last["gc"] < vnn_last["astar"]

    for method, series in result.series.items():
        assert all(t > 0.0 for t in series), method
        # Work grows with batch size.
        assert series[-1] > series[0], method

    last = {m: s[-1] for m, s in result.series.items()}
    # At the largest size the caches beat (or at worst match) per-query A*.
    assert last["slc-s"] <= last["astar"] * 1.05
    assert last["gc"] <= last["astar"] * 1.05
    assert last["zlc"] <= last["astar"] * 1.15

    frozen = exp.run_fig7d(env, frozen_cache_suites)
    publish(frozen)
    frozen_vnn = exp.run_fig7d_vnn(env, frozen_cache_suites)
    publish(frozen_vnn)
    # The landmark bound finds the same paths with fewer visited nodes:
    # per query, and on every Local Cache miss (the caches fill alike).
    frozen_last = {m: s[-1] for m, s in frozen_vnn.series.items()}
    assert frozen_last["astar-alt"] < frozen_last["astar"] == vnn_last["astar"]
    for method in ("zlc", "slc-r", "slc-s"):
        assert frozen_last[method] < vnn_last[method], method
    for dict_suite, frozen_suite in zip(cache_suites, frozen_cache_suites):
        for method in exp.CACHE_METHODS:
            assert frozen_suite.hit_ratio[method] == dict_suite.hit_ratio[method]

    # Benchmark the A* baseline on the largest stream (reference cost).
    queries = env.workload.batch(sizes[-1], *env.cache_band)
    answerer = OneByOneAnswerer(env.graph)
    benchmark.pedantic(lambda: answerer.answer(queries), rounds=3, iterations=1)
