"""Differential suite for the joint numpy sweep ``np_batch_dijkstra``.

The dict-graph search is the oracle throughout: on distinct distances the
sweep must reproduce distances, paths and visited counts bit-identically;
on exact float ties (zero-weight edges) distances stay bit-identical while
path tie-breaks may differ but must remain valid shortest paths.

The module also covers the backend knob (``REPRO_KERNEL`` and the auto
crossover), dispatch from the public entry points (only
``batch_dijkstra`` reaches numpy), the forced-no-numpy fallback, and
cooperative deadline cancellation at bucket boundaries.
"""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.network.generators import beijing_like, grid_city
from repro.network.graph import RoadNetwork
from repro.obs import MetricsRegistry, use_registry
from repro.resilience.deadline import Deadline, DeadlineExceededError, use_deadline
from repro.search import np_kernels
from repro.search.dijkstra import (
    batch_dijkstra,
    bounded_ball_tree,
    dijkstra,
    np_batch_active,
    one_to_many,
    sssp_tree,
)

from tests.conftest import assert_valid_path

requires_numpy = pytest.mark.skipif(
    not np_kernels.np_available(), reason="numpy not installed"
)


def random_network(seed: int, n: int = 50, extra: int = 70, zero: bool = False):
    """A connected random network plus one isolated vertex (id ``n``).

    The isolated vertex keeps every unreachable code path covered;
    ``zero`` mixes zero-weight edges in for exact float ties.
    """
    rng = random.Random(seed)
    xs = [rng.random() for _ in range(n + 1)]
    ys = [rng.random() for _ in range(n + 1)]
    graph = RoadNetwork(xs, ys)
    seen = set()

    def add(u, v, w):
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            graph.add_edge(u, v, w)

    for i in range(1, n):
        j = rng.randrange(i)
        w = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0]) if zero else rng.random() * 3
        add(i, j, w)
        add(j, i, w)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        w = rng.choice([0.0, 1.0, 2.0]) if zero else rng.random() * 3
        add(u, v, w)
    return graph


def case_seeds(zero_every: int = 3, count: int = 12):
    return [(seed, seed % zero_every == 0) for seed in range(count)]


@requires_numpy
class TestKernelDifferential:
    """Direct kernel calls vs the dict oracle (no dispatch involved)."""

    def test_point_to_point(self):
        # One-row batches: the sweep's k == 1 shape, zero-weight ties included.
        for seed, zero in case_seeds():
            graph = random_network(seed, zero=zero)
            csr = graph.freeze()
            rng = random.Random(1000 + seed)
            n = graph.num_vertices
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(8)]
            pairs += [(3, 3), (0, n - 1)]  # degenerate + unreachable
            for backward in (False, True):
                for s, t in pairs:
                    ref = dijkstra(graph, s, t, backward)
                    (got,) = np_kernels.np_batch_dijkstra(csr, [(s, t)], backward)
                    assert got.distance == ref.distance, (seed, s, t)
                    if zero:
                        if ref.path:
                            assert got.path[0] == s and got.path[-1] == t
                            # A backward-search path uses reverse edges;
                            # validate its forward-space reversal.
                            forward = (
                                got.path if not backward
                                else list(reversed(got.path))
                            )
                            a, b = (s, t) if not backward else (t, s)
                            assert_valid_path(graph, forward, a, b, got.distance)
                    else:
                        assert got.path == ref.path, (seed, s, t)
                        assert got.visited == ref.visited, (seed, s, t)

    def test_batch_matches_per_query(self):
        for seed, zero in case_seeds(count=8):
            graph = random_network(seed, zero=zero)
            csr = graph.freeze()
            rng = random.Random(2000 + seed)
            n = graph.num_vertices
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(9)]
            pairs.append((7, 7))
            for backward in (False, True):
                batch = np_kernels.np_batch_dijkstra(csr, pairs, backward)
                assert len(batch) == len(pairs)
                for (s, t), got in zip(pairs, batch):
                    ref = dijkstra(graph, s, t, backward)
                    assert got.source == s and got.target == t
                    assert got.distance == ref.distance, (seed, s, t)
                    if not zero:
                        assert got.path == ref.path, (seed, s, t)
                        assert got.visited == ref.visited, (seed, s, t)


@requires_numpy
class TestBackendKnob:
    def test_invalid_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "cuda")
        with pytest.raises(ConfigurationError):
            np_kernels.kernel_backend()

    def test_csr_disables(self, monkeypatch):
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "csr")
        csr = random_network(2).freeze()
        assert not np_kernels.np_active(csr)

    def test_np_forces(self, monkeypatch):
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "np")
        csr = random_network(2).freeze()
        assert np_kernels.np_active(csr)

    def test_auto_uses_size_crossovers(self, monkeypatch):
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "auto")
        small = random_network(2).freeze()  # 51 vertices
        assert small.num_vertices < np_kernels.BATCH_MIN_VERTICES
        assert not np_kernels.np_active(small)
        large = grid_city(23, 23, seed=1).freeze()  # 529 vertices
        assert large.num_vertices >= np_kernels.BATCH_MIN_VERTICES
        assert np_kernels.np_active(large)

    def test_warm_view_caches(self):
        csr = random_network(3).freeze()
        assert np_kernels.warm_view(csr)
        view = csr._npview
        assert view is not None
        assert np_kernels.warm_view(csr)
        assert csr._npview is view


@requires_numpy
class TestDispatch:
    """Dispatch from the public entry points: only ``batch_dijkstra`` reaches numpy."""

    def test_forced_np_dispatch_bit_identical(self, monkeypatch):
        """``REPRO_KERNEL=np`` moves only the joint batch sweep: every
        single-search entry point stays on its scalar CSR kernel."""
        graph = grid_city(6, 6, spacing=1.0, seed=3)
        frozen = graph.copy()
        frozen.freeze()
        rng = random.Random(17)
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "np")
        registry = MetricsRegistry()
        with use_registry(registry):
            for _ in range(25):
                s, t = rng.randrange(36), rng.randrange(36)
                got = dijkstra(frozen, s, t)
                ref = dijkstra(graph, s, t)
                assert (got.distance, got.path, got.visited) == (
                    ref.distance, ref.path, ref.visited,
                )
                assert bounded_ball_tree(frozen, s, 2.5, True) == bounded_ball_tree(
                    graph, s, 2.5, True
                )
                assert one_to_many(frozen, s, [t, 0]) == one_to_many(graph, s, [t, 0])
            assert sssp_tree(frozen, 5) == sssp_tree(graph, 5)
        assert "csr.np_sweeps" not in registry.snapshot().counters

    def test_batch_dispatch_and_helper(self, monkeypatch):
        graph = grid_city(6, 6, spacing=1.0, seed=3)
        frozen = graph.copy()
        frozen.freeze()
        pairs = [(0, 35), (10, 20), (3, 3), (7, 31)]
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "np")
        assert np_batch_active(frozen, len(pairs))
        assert not np_batch_active(graph, len(pairs))  # never frozen
        got = batch_dijkstra(frozen, pairs)
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "csr")
        assert not np_batch_active(frozen, len(pairs))
        ref = batch_dijkstra(frozen, pairs)
        assert [(r.distance, r.path, r.visited) for r in got] == [
            (r.distance, r.path, r.visited) for r in ref
        ]

    def test_auto_skips_small_graphs(self, monkeypatch):
        monkeypatch.delenv(np_kernels.BACKEND_KNOB, raising=False)
        frozen = grid_city(5, 5, seed=1)
        frozen.freeze()
        registry = MetricsRegistry()
        with use_registry(registry):
            batch_dijkstra(frozen, [(0, 24), (3, 20)])
        assert "csr.np_sweeps" not in registry.snapshot().counters


class TestNoNumpyFallback:
    """With numpy gone, dispatch degrades to the scalar path transparently."""

    def test_answers_identical_without_numpy(self, monkeypatch):
        graph = grid_city(6, 6, spacing=1.0, seed=3)
        frozen = graph.copy()
        frozen.freeze()
        rng = random.Random(29)
        cases = [(rng.randrange(36), rng.randrange(36)) for _ in range(15)]
        with_np = [dijkstra(frozen, s, t) for s, t in cases]
        monkeypatch.setattr(np_kernels, "_numpy", None)
        assert not np_kernels.np_available()
        assert not np_kernels.np_active(frozen.frozen_or_none() or frozen.freeze())
        without_np = [dijkstra(frozen, s, t) for s, t in cases]
        assert [(r.distance, r.path, r.visited) for r in with_np] == [
            (r.distance, r.path, r.visited) for r in without_np
        ]

    def test_forcing_np_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(np_kernels, "_numpy", None)
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "np")
        csr = random_network(2).freeze()
        with pytest.raises(ConfigurationError, match="optional extra"):
            np_kernels.np_active(csr)

    def test_warm_view_is_noop_without_numpy(self, monkeypatch):
        monkeypatch.setattr(np_kernels, "_numpy", None)
        csr = random_network(4).freeze()
        assert not np_kernels.warm_view(csr)


@requires_numpy
class TestDeadline:
    def test_expired_deadline_cancels_sweep(self):
        graph = beijing_like("tiny", seed=0)
        csr = graph.freeze()
        deadline = Deadline(-1.0)  # already expired
        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as err:
                np_kernels.np_batch_dijkstra(csr, [(0, graph.num_vertices - 1)])
        assert err.value.where == "dijkstra"

    def test_expired_deadline_cancels_batch(self):
        graph = beijing_like("tiny", seed=0)
        csr = graph.freeze()
        pairs = [(0, 40), (1, 50)]
        with use_deadline(Deadline(-1.0)):
            with pytest.raises(DeadlineExceededError):
                np_kernels.np_batch_dijkstra(csr, pairs)


@requires_numpy
class TestAccounting:
    def test_unreachable_heap_term_unified(self):
        """The satellite bugfix: unreachable returns record the drained
        heap form ``pushes + 1 - len(heap)`` on every backend, so dict,
        scalar-CSR and numpy totals merge identically across a fleet."""
        graph = random_network(6)  # vertex 50 is isolated
        frozen = graph.copy()
        frozen.freeze()

        def counters(g, monkey_env):
            registry = MetricsRegistry()
            with use_registry(registry):
                dijkstra(g, 0, graph.num_vertices - 1)
            return {
                k: v for k, v in registry.snapshot().counters.items()
                if k.startswith("search.")
            }

        assert counters(graph, None) == counters(frozen, None)

    def test_np_search_counters_emitted(self):
        csr = random_network(7).freeze()
        registry = MetricsRegistry()
        with use_registry(registry):
            np_kernels.np_batch_dijkstra(csr, [(0, 10), (2, 20), (4, 40)])
        counters = registry.snapshot().counters
        assert counters["csr.np_kind.batch-dijkstra"] == 1
        assert counters["csr.np_rows"] == 3
        assert counters["search.runs"] == 3
        assert counters["csr.np_buckets"] >= 1
