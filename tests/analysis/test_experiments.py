"""Smoke tests for the experiment harness on the tiny network.

These verify the harness produces complete, well-formed artefacts; the
paper-shape assertions live in benchmarks/ where sizes are realistic.
"""

import pytest

from repro.analysis import experiments as exp

SIZES = (20, 40)


@pytest.fixture(scope="module")
def env():
    return exp.build_env(scale="tiny", seed=7)


@pytest.fixture(scope="module")
def cache_suites(env):
    return exp.run_cache_suite(env, SIZES, cache_fractions=(0.7, 1.0))


@pytest.fixture(scope="module")
def r2r_suites(env):
    return exp.run_r2r_suite(env, SIZES)


@pytest.fixture(scope="module")
def frozen_cache_suites(env):
    return exp.run_cache_suite(env, SIZES, cache_fractions=(), frozen=True)


@pytest.fixture(scope="module")
def frozen_r2r_suites(env):
    return exp.run_r2r_suite(env, SIZES, frozen=True)


class TestEnv:
    def test_env_bands_ordered(self, env):
        assert env.cache_band[0] < env.cache_band[1]
        assert env.r2r_band[0] < env.r2r_band[1]


class TestFig7a:
    def test_series_complete(self, env):
        result = exp.run_fig7a(env, SIZES)
        assert result.experiment == "fig7a"
        assert set(result.series) == {"zigzag", "search-space", "co-clustering"}
        assert all(len(v) == len(SIZES) for v in result.series.values())
        assert all(t >= 0 for v in result.series.values() for t in v)
        assert "Fig 7-(a)" in result.rendered


class TestCacheSuite:
    def test_suites_complete(self, cache_suites):
        assert len(cache_suites) == len(SIZES)
        for suite in cache_suites:
            assert set(suite.hit_ratio) == set(exp.CACHE_METHODS)
            assert set(suite.answer_seconds) == set(exp.CACHE_METHODS)
            assert suite.gc_bytes > 0

    def test_hit_ratios_in_range(self, cache_suites):
        for suite in cache_suites:
            for method, ratio in suite.hit_ratio.items():
                assert 0.0 <= ratio <= 1.0, method

    def test_table1(self, env, cache_suites):
        result = exp.run_table1(env, cache_suites)
        assert len(result.series["cache_mb"]) == len(SIZES)
        assert all(mb > 0 for mb in result.series["cache_mb"])

    def test_fig7b(self, env, cache_suites):
        result = exp.run_fig7b(env, cache_suites)
        assert set(result.series) == {"gc", "zlc", "slc-r", "slc-s"}

    def test_fig7c_and_e_fractions(self, env, cache_suites):
        c = exp.run_fig7c(env, cache_suites)
        e = exp.run_fig7e(env, cache_suites)
        assert set(c.series) == {"70%|GC|", "100%|GC|"}
        assert set(e.series) == {"70%|GC|", "100%|GC|"}

    def test_fig7d(self, env, cache_suites):
        result = exp.run_fig7d(env, cache_suites)
        assert set(result.series) == set(exp.CACHE_METHODS)
        assert all(t > 0 for v in result.series.values() for t in v)

    def test_fig7d_vnn_supplement(self, env, cache_suites):
        result = exp.run_fig7d_vnn(env, cache_suites)
        assert set(result.series) == set(exp.CACHE_METHODS)
        assert all(v > 0 for series in result.series.values() for v in series)
        assert "VNN" in result.rendered

    def test_sweep_visited_recorded(self, cache_suites):
        for suite in cache_suites:
            assert set(suite.sweep_visited) == set(suite.sweep_hit_ratio)
            assert all(v > 0 for v in suite.sweep_visited.values())


class TestR2RSuite:
    def test_suites_complete(self, r2r_suites):
        for suite in r2r_suites:
            assert set(suite.answer_seconds) == set(exp.R2R_METHODS)
            assert set(suite.errors) == {"k-path", "r2r-s", "r2r-r"}

    def test_fig7f(self, env, r2r_suites):
        result = exp.run_fig7f(env, r2r_suites)
        assert set(result.series) == set(exp.R2R_METHODS)

    def test_fig7f_vnn_supplement(self, env, r2r_suites):
        result = exp.run_fig7f_vnn(env, r2r_suites)
        assert set(result.series) == set(exp.R2R_METHODS)
        assert all(v > 0 for series in result.series.values() for v in series)

    def test_table2_r2r_bounded(self, env, r2r_suites):
        result = exp.run_table2(env, r2r_suites)
        for max_err in result.series["r2r_max"]:
            assert max_err <= 5.0 + 1e-6  # eta = 5 %

    def test_r2r_errors_nonnegative(self, r2r_suites):
        for suite in r2r_suites:
            for report in suite.errors.values():
                assert report.average_error >= 0.0
                assert report.max_error >= report.average_error

    def test_cells_time_the_median_of_rounds(self):
        from repro.core.results import BatchAnswer

        calls = []

        def run(name, seconds):
            def answer():
                calls.append(name)
                return BatchAnswer(method=name, answer_seconds=seconds.pop(0))

            return answer

        answers = exp._median_timed(  # noqa: SLF001
            {"a": run("a", [3.0, 1.0, 2.0]), "b": run("b", [9.0, 5.0, 7.0])}, 3
        )
        assert calls == ["a", "b"] * 3  # every method once per round
        assert answers["a"].answer_seconds == 2.0
        assert answers["b"].answer_seconds == 7.0


class TestFrozenSeries:
    """The same streams answered on a frozen copy with landmark misses."""

    def test_env_graph_stays_unfrozen(self, env, frozen_cache_suites):
        assert env.graph.frozen_or_none() is None

    def test_cache_series_adds_astar_alt(self, env, frozen_cache_suites):
        methods = {"astar-alt", *exp.CACHE_METHODS}
        for suite in frozen_cache_suites:
            assert set(suite.answer_seconds) == methods
            assert suite.sweep_hit_ratio == {}
        result = exp.run_fig7d(env, frozen_cache_suites)
        assert result.experiment == "fig7d_frozen"
        assert set(result.series) == methods
        assert "frozen snapshot" in result.rendered
        vnn = exp.run_fig7d_vnn(env, frozen_cache_suites)
        assert vnn.experiment == "fig7d_vnn_frozen"
        assert list(vnn.series)[:2] == ["astar", "astar-alt"]

    def test_caches_fill_as_on_the_dict_graph(self, cache_suites, frozen_cache_suites):
        for dict_suite, frozen_suite in zip(cache_suites, frozen_cache_suites):
            assert frozen_suite.gc_bytes == dict_suite.gc_bytes
            for method in exp.CACHE_METHODS:
                assert frozen_suite.hit_ratio[method] == dict_suite.hit_ratio[method]

    def test_r2r_series_adds_astar_alt(self, env, r2r_suites, frozen_r2r_suites):
        methods = {"astar-alt", *exp.R2R_METHODS}
        for dict_suite, frozen_suite in zip(r2r_suites, frozen_r2r_suites):
            assert set(frozen_suite.answer_seconds) == methods
            for label in ("k-path", "r2r-s", "r2r-r"):
                assert frozen_suite.errors[label] == dict_suite.errors[label]
        assert exp.run_fig7f(env, frozen_r2r_suites).experiment == "fig7f_frozen"
        vnn = exp.run_fig7f_vnn(env, frozen_r2r_suites)
        assert vnn.experiment == "fig7f_vnn_frozen"
        assert set(vnn.series) == methods


class TestFig8:
    def test_fig8_without_indexes(self, env):
        result = exp.run_fig8(env, size=30, num_servers=4, include_indexes=False)
        assert set(result.xs) == {"astar", "slc-s", "astar-long", "r2r-s"}
        assert all(t >= 0 for t in result.series["seconds"])

    def test_fig8_with_indexes(self, env):
        result = exp.run_fig8(env, size=20, num_servers=4, include_indexes=True)
        assert "ch-construction" in result.xs
        assert "pll-construction" in result.xs
