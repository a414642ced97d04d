"""Figure 7-(f): region-to-region answering time of the five methods.

Paper shape: per-query A* is the slowest once the batch outgrows the
smallest size; Zigzag-Petal is relatively worst at the smallest size (few
1-N queries to amortise its petals) and improves with scale; the R2R
variants win at scale, with R2R-R at least matching R2R-S.

The frozen series answers the same batches on a frozen copy, where R2R's
representative legs search under the snapshot's landmark bound, beside
``astar-alt`` (per-query A* under that bound).
"""

from conftest import publish

from repro.analysis import experiments as exp
from repro.core.coclustering import CoClusteringDecomposer
from repro.core.r2r import RegionToRegionAnswerer


def test_fig7f_r2r_query_time(benchmark, env, sizes, r2r_suites, frozen_r2r_suites):
    result = exp.run_fig7f(env, r2r_suites)
    publish(result)
    vnn = exp.run_fig7f_vnn(env, r2r_suites)
    publish(vnn)

    # Deterministic shape (VNN): the batch methods search less than A*.
    vnn_last = {m: s[-1] for m, s in vnn.series.items()}
    assert vnn_last["zigzag-petal"] < vnn_last["astar"]
    assert vnn_last["r2r-s"] < vnn_last["astar"]
    assert vnn_last["r2r-r"] < vnn_last["astar"]

    for method, series in result.series.items():
        assert all(t > 0 for t in series), method

    last = {m: s[-1] for m, s in result.series.items()}
    # The region methods beat per-query A* at scale.  Wall times carry
    # scheduler noise across a full suite run, so the claim is asserted on
    # the best R2R variant (the paper reports R2R-R slightly ahead) with
    # slack; the deterministic VNN assertions above are the hard check.
    assert min(last["r2r-s"], last["r2r-r"]) <= last["astar"] * 1.05
    assert last["k-path"] <= last["astar"] * 1.05

    # Zigzag-Petal shares computation, so at scale it does not lose to
    # per-query A* by more than timing noise.  (The paper's stronger claim
    # — petal *slowest* at the smallest size, improving with |Q| — needs a
    # workload where small batches contain almost no 1-N queries; our
    # hotspot workload has shareable petals at every size, so the ratio is
    # flat rather than improving.  Documented in EXPERIMENTS.md.)
    assert last["zigzag-petal"] <= last["astar"] * 1.3

    frozen = exp.run_fig7f(env, frozen_r2r_suites)
    publish(frozen)
    frozen_vnn = exp.run_fig7f_vnn(env, frozen_r2r_suites)
    publish(frozen_vnn)
    # Same paths under the landmark bound, so the same errors, and fewer
    # visited nodes per query and on R2R's representative legs.
    frozen_last = {m: s[-1] for m, s in frozen_vnn.series.items()}
    assert frozen_last["astar-alt"] < frozen_last["astar"] == vnn_last["astar"]
    for method in ("r2r-s", "r2r-r"):
        assert frozen_last[method] < vnn_last[method], method
    for dict_suite, frozen_suite in zip(r2r_suites, frozen_r2r_suites):
        assert frozen_suite.errors == dict_suite.errors

    # Benchmark R2R-S on the largest long-band batch.
    queries = env.workload.batch(sizes[-1], *env.r2r_band)
    decomposition = CoClusteringDecomposer(env.graph, eta=0.05).decompose(queries)
    answerer = RegionToRegionAnswerer(env.graph, eta=0.05, selection="longest")
    benchmark.pedantic(
        lambda: answerer.answer(decomposition), rounds=3, iterations=1
    )
