"""Differential suite: six shortest-path algorithms against one oracle.

Every point-to-point algorithm in the library — A*, bidirectional
Dijkstra, bidirectional A*, Contraction Hierarchies, Pruned Landmark
Labeling — must return *exactly* the Dijkstra distance on randomized
(graph, source, target) cases drawn from the shared pool, including the
degenerate ``source == target`` case.  Index structures are built once
per graph and reused across examples, so 200 cases per algorithm stay
cheap enough for tier-1.
"""

import math
import os
import random
from typing import Dict
from unittest import mock

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.index.cch import CustomizableContractionHierarchy
from repro.index.ch import ContractionHierarchy
from repro.index.pll import PrunedLandmarkLabeling
from repro.network.timeline import congestion_snapshot
from repro.search.astar import a_star
from repro.search.bidirectional import bidirectional_dijkstra
from repro.search.bidirectional_astar import bidirectional_a_star
from repro.search.dijkstra import dijkstra
from tests.conftest import assert_valid_path

from tests.correctness.conftest import (
    CORRECTNESS,
    GRAPH_POOL,
    graph_key_and_batch,
    graph_key_and_pair,
)

_CH: Dict[str, ContractionHierarchy] = {}
_PLL: Dict[str, PrunedLandmarkLabeling] = {}


def ch_for(graph_key: str) -> ContractionHierarchy:
    if graph_key not in _CH:
        _CH[graph_key] = ContractionHierarchy(GRAPH_POOL[graph_key])
    return _CH[graph_key]


def pll_for(graph_key: str) -> PrunedLandmarkLabeling:
    if graph_key not in _PLL:
        _PLL[graph_key] = PrunedLandmarkLabeling(GRAPH_POOL[graph_key])
    return _PLL[graph_key]


class TestSearchAlgorithmsAgree:
    @given(graph_key_and_pair())
    @CORRECTNESS
    def test_path_searches_match_dijkstra(self, drawn):
        graph_key, source, target = drawn
        graph = GRAPH_POOL[graph_key]
        truth = dijkstra(graph, source, target)
        contenders = {
            "a_star": a_star(graph, source, target),
            "bidirectional": bidirectional_dijkstra(graph, source, target),
            "bidirectional_a_star": bidirectional_a_star(graph, source, target),
        }
        for name, result in contenders.items():
            assert math.isclose(
                result.distance, truth.distance, rel_tol=1e-9, abs_tol=1e-12
            ), f"{name} on {graph_key}: {source}->{target} gave "\
               f"{result.distance}, dijkstra {truth.distance}"
            if math.isfinite(result.distance) and source != target:
                assert_valid_path(
                    graph, result.path, source, target, result.distance
                )

    @given(graph_key_and_pair())
    @CORRECTNESS
    def test_distance_indexes_match_dijkstra(self, drawn):
        graph_key, source, target = drawn
        graph = GRAPH_POOL[graph_key]
        truth = dijkstra(graph, source, target).distance
        ch = ch_for(graph_key).distance(source, target)
        pll = pll_for(graph_key).distance(source, target)
        assert math.isclose(ch, truth, rel_tol=1e-9, abs_tol=1e-12), (
            f"CH on {graph_key}: {source}->{target} gave {ch}, "
            f"dijkstra {truth}"
        )
        assert math.isclose(pll, truth, rel_tol=1e-9, abs_tol=1e-12), (
            f"PLL on {graph_key}: {source}->{target} gave {pll}, "
            f"dijkstra {truth}"
        )

    def test_self_query_is_zero_everywhere(self):
        for graph_key, graph in GRAPH_POOL.items():
            v = graph.num_vertices // 2
            assert dijkstra(graph, v, v).distance == 0.0
            assert a_star(graph, v, v).distance == 0.0
            assert bidirectional_dijkstra(graph, v, v).distance == 0.0
            assert bidirectional_a_star(graph, v, v).distance == 0.0
            assert ch_for(graph_key).distance(v, v) == 0.0
            assert pll_for(graph_key).distance(v, v) == 0.0


# ----------------------------------------------------------------------
# Vectorized numpy kernels vs the dict oracle
# ----------------------------------------------------------------------
_FROZEN: Dict[str, object] = {}


def frozen_for(graph_key: str):
    """A frozen *copy* of a pool graph (pool graphs stay unfrozen so the
    other suites keep exercising the dict dispatch path)."""
    if graph_key not in _FROZEN:
        clone = GRAPH_POOL[graph_key].copy()
        _FROZEN[graph_key] = clone.freeze()
    return _FROZEN[graph_key]


class TestNumpyKernelsAgree:
    """Delta-stepping / batched one-to-many / vectorized balls vs Dijkstra.

    The pool graphs carry jittered weights, so finite distances are
    distinct and the exactness contract covers paths, parents and visited
    counts bit-for-bit — not just distances.
    """

    @given(graph_key_and_pair())
    @CORRECTNESS
    def test_np_point_kernels_match_dijkstra(self, drawn):
        from repro.search import np_kernels

        if not np_kernels.np_available():
            return
        graph_key, source, target = drawn
        graph = GRAPH_POOL[graph_key]
        csr = frozen_for(graph_key)
        truth = dijkstra(graph, source, target)
        got = np_kernels.np_dijkstra(csr, source, target)
        assert (got.distance, got.path, got.visited) == (
            truth.distance, truth.path, truth.visited,
        ), f"np_dijkstra diverged on {graph_key}: {source}->{target}"
        radius = truth.distance if math.isfinite(truth.distance) else 2.0
        from repro.search.dijkstra import bounded_ball_tree, one_to_many

        assert np_kernels.np_bounded_ball_tree(
            csr, source, radius
        ) == bounded_ball_tree(graph, source, radius)
        targets = [target, source, (source + 1) % graph.num_vertices]
        assert np_kernels.np_one_to_many(csr, source, targets) == one_to_many(
            graph, source, targets
        )

    @given(graph_key_and_batch(min_size=4, max_size=12))
    @CORRECTNESS
    def test_np_batch_kernels_match_dijkstra(self, drawn):
        from repro.search import np_kernels

        if not np_kernels.np_available():
            return
        graph_key, batch = drawn
        graph = GRAPH_POOL[graph_key]
        csr = frozen_for(graph_key)
        pairs = [(q.source, q.target) for q in batch]
        got = np_kernels.np_batch_dijkstra(csr, pairs)
        for (source, target), result in zip(pairs, got):
            truth = dijkstra(graph, source, target)
            assert (result.distance, result.path, result.visited) == (
                truth.distance, truth.path, truth.visited,
            ), f"np_batch_dijkstra diverged on {graph_key}: {source}->{target}"
        specs = [(pairs[0][0], False), (pairs[0][0], True),
                 (pairs[0][1], False), (pairs[0][1], True)]
        from repro.search.dijkstra import bounded_ball_tree

        balls = np_kernels.np_multi_bounded_ball_tree(csr, specs, 2.5)
        for (src, backward), ball in zip(specs, balls):
            assert ball == bounded_ball_tree(graph, src, 2.5, backward)

    def test_mutation_query_interleaving(self):
        """np answers track mutations across refreeze boundaries."""
        from repro.network.generators import grid_city
        from repro.search import np_kernels

        if not np_kernels.np_available():
            return
        import random as _random

        graph = grid_city(5, 5, seed=41)
        rng = _random.Random(13)
        edges = list(graph.edges())
        for round_no in range(6):
            csr = graph.freeze()
            for _ in range(8):
                s, t = rng.randrange(25), rng.randrange(25)
                truth = dijkstra(graph, s, t)
                got = np_kernels.np_dijkstra(csr, s, t)
                assert (got.distance, got.path, got.visited) == (
                    truth.distance, truth.path, truth.visited,
                ), f"diverged after {round_no} mutation rounds"
            for u, v, _w in rng.sample(edges, 4):
                graph.set_weight(u, v, rng.uniform(0.5, 4.0))

    def test_forced_no_numpy_fallback_identical(self, monkeypatch):
        """The same queries answer bit-identically with numpy forced on,
        with the scalar backend forced, and with numpy absent entirely."""
        from repro.network.generators import grid_city
        from repro.search import np_kernels

        if not np_kernels.np_available():
            return
        import random as _random

        frozen = grid_city(6, 6, seed=7)
        frozen.freeze()
        rng = _random.Random(3)
        cases = [(rng.randrange(36), rng.randrange(36)) for _ in range(20)]

        def run():
            return [
                (r.distance, tuple(r.path), r.visited)
                for r in (dijkstra(frozen, s, t) for s, t in cases)
            ]

        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "np")
        with_np = run()
        monkeypatch.setenv(np_kernels.BACKEND_KNOB, "csr")
        scalar = run()
        monkeypatch.delenv(np_kernels.BACKEND_KNOB)
        monkeypatch.setattr(np_kernels, "_numpy", None)
        without_numpy = run()
        assert with_np == scalar == without_numpy


# ----------------------------------------------------------------------
# Customizable CCH under mutation/query interleavings
# ----------------------------------------------------------------------
class CchMutationMachine(RuleBasedStateMachine):
    """Interleave weight mutations, epoch bumps, re-customizations and
    point-to-point queries in arbitrary order; the customized CCH must
    equal Dijkstra *bit-for-bit* after every step.

    This is the differential contract the index's epoch keying makes:
    no mutation schedule — single-arc tweaks, global rescales, traffic
    snapshots, even arcs added outside the chordal closure — may ever
    surface a stale or misprized shortcut through ``distance()``.
    """

    def __init__(self):
        super().__init__()
        self.graph = GRAPH_POOL["grid4"].copy()
        self.n = self.graph.num_vertices
        self.cch = CustomizableContractionHierarchy(self.graph)
        self.edges = [(u, v) for u, v, _w in self.graph.edges()]

    @rule(pick=st.integers(min_value=0, max_value=10**6),
          w=st.floats(min_value=0.05, max_value=5.0,
                      allow_nan=False, allow_infinity=False))
    def set_weight(self, pick, w):
        u, v = self.edges[pick % len(self.edges)]
        self.graph.set_weight(u, v, w)

    @rule(factor=st.floats(min_value=0.5, max_value=2.0,
                           allow_nan=False, allow_infinity=False))
    def scale_all_weights(self, factor):
        self.graph.scale_weights(factor)

    @rule(factor=st.floats(min_value=0.5, max_value=2.0,
                           allow_nan=False, allow_infinity=False),
          start=st.integers(min_value=0, max_value=10**6),
          count=st.integers(min_value=1, max_value=6))
    def scale_weight_subset(self, factor, start, count):
        m = len(self.edges)
        subset = [self.edges[(start + k) % m] for k in range(count)]
        self.graph.scale_weights(factor, edges=subset)

    @rule(seed=st.integers(min_value=0, max_value=10**6))
    def traffic_epoch(self, seed):
        """A timeline-style epoch: one congestion snapshot's worth of
        jammed arcs, all landing in a single version bump per arc."""
        congestion_snapshot(fraction=0.4)(self.graph, random.Random(seed))

    @rule(seed=st.integers(min_value=0, max_value=10**6),
          w=st.floats(min_value=0.1, max_value=3.0,
                      allow_nan=False, allow_infinity=False))
    def add_edge(self, seed, w):
        rng = random.Random(seed)
        for _ in range(20):
            u, v = rng.randrange(self.n), rng.randrange(self.n)
            if u != v and not self.graph.has_edge(u, v):
                self.graph.add_edge(u, v, w)
                self.edges.append((u, v))
                return

    @rule()
    def recustomize(self):
        self.cch.ensure_current()
        assert not self.cch.stale

    @rule(s=st.integers(min_value=0, max_value=10**6),
          t=st.integers(min_value=0, max_value=10**6))
    def query(self, s, t):
        s, t = s % self.n, t % self.n
        want = dijkstra(self.graph, s, t).distance
        got = self.cch.distance(s, t)
        assert got == want, (
            f"CCH diverged on {s}->{t} at version {self.graph.version}: "
            f"index {got!r}, dijkstra {want!r}"
        )
        assert not self.cch.stale


TestCchMutationInterleaving = CchMutationMachine.TestCase
TestCchMutationInterleaving.settings = settings(
    CORRECTNESS, stateful_step_count=15
)


class CchTwoLoopsMachine(CchMutationMachine):
    """The same interleavings with a scalar-loop twin: after every step
    the level-vectorised and the scalar customization of the current
    metric must agree on every shortcut weight, every triangle choice
    and every unpacked path (one layout, two loops)."""

    def __init__(self):
        super().__init__()
        self.twin = CustomizableContractionHierarchy(self.graph)

    @invariant()
    def loops_agree(self):
        with mock.patch.dict(os.environ, {"REPRO_KERNEL": "auto"}):
            self.cch.customize()
        with mock.patch.dict(os.environ, {"REPRO_KERNEL": "csr"}):
            self.twin.customize()
        assert self.twin.rank == self.cch.rank
        assert self.twin.shortcut_weights() == self.cch.shortcut_weights()
        assert self.twin._up_tri == self.cch._up_tri  # noqa: SLF001
        assert self.twin._down_tri == self.cch._down_tri  # noqa: SLF001
        s, t = self.graph.version % self.n, (7 * self.graph.version + 3) % self.n
        assert self.twin.query(s, t).path == self.cch.query(s, t).path


TestCchTwoLoops = CchTwoLoopsMachine.TestCase
TestCchTwoLoops.settings = settings(CORRECTNESS, stateful_step_count=15)


class TestCchCustomizationIdempotent:
    """Customization is idempotent and path-independent: only the final
    metric matters, never the mutation schedule that produced it."""

    @given(st.sampled_from(sorted(GRAPH_POOL)),
           st.integers(min_value=0, max_value=10**6))
    @CORRECTNESS
    def test_shortcut_weights_depend_only_on_final_metric(
        self, graph_key, seed
    ):
        graph = GRAPH_POOL[graph_key].copy()
        cch = CustomizableContractionHierarchy(graph)
        rng = random.Random(seed)
        edges = [(u, v) for u, v, _w in graph.edges()]
        for _ in range(rng.randrange(1, 12)):
            op = rng.randrange(3)
            if op == 0:
                u, v = rng.choice(edges)
                graph.set_weight(u, v, rng.uniform(0.05, 5.0))
            elif op == 1:
                graph.scale_weights(rng.uniform(0.5, 2.0))
            else:
                subset = rng.sample(edges, rng.randrange(1, 5))
                graph.scale_weights(rng.uniform(0.5, 2.0), edges=subset)
            # Optionally customize mid-sequence — must not matter.
            if rng.random() < 0.3:
                cch.customize()
        once = cch.customize()
        assert once >= 0.0
        first = cch.shortcut_weights()
        cch.customize()
        assert cch.shortcut_weights() == first, "customize not idempotent"
        # Path independence: a fresh order+customization of the final
        # metric yields the very same arrays (the order is deterministic,
        # so super-edge ids line up one-to-one).
        fresh = CustomizableContractionHierarchy(graph)
        assert fresh.rank == cch.rank
        assert fresh.shortcut_weights() == first, (
            "customized weights depend on the mutation path taken"
        )

    @given(st.sampled_from(["grid4", "grid5", "ring"]),
           st.integers(min_value=0, max_value=10**6))
    @settings(CORRECTNESS, max_examples=60)
    def test_recustomization_matches_full_legacy_rebuild(
        self, graph_key, seed
    ):
        """After any weight-mutation sequence, the re-customized CCH and
        a from-scratch legacy CH rebuild agree with Dijkstra on sampled
        pairs — the customization shortcut loses nothing vs paying for
        the full witness-search rebuild."""
        graph = GRAPH_POOL[graph_key].copy()
        cch = CustomizableContractionHierarchy(graph)
        rng = random.Random(seed)
        edges = [(u, v) for u, v, _w in graph.edges()]
        for _ in range(rng.randrange(1, 8)):
            u, v = rng.choice(edges)
            graph.set_weight(u, v, rng.uniform(0.05, 5.0))
        legacy = ContractionHierarchy(graph)
        n = graph.num_vertices
        for _ in range(6):
            s, t = rng.randrange(n), rng.randrange(n)
            truth = dijkstra(graph, s, t).distance
            assert cch.distance(s, t) == truth
            assert math.isclose(
                legacy.distance(s, t), truth, rel_tol=1e-9, abs_tol=1e-12
            )
