"""The |GC| sizing's log searches answer the Local Cache's misses.

``BatchProcessor`` sizes every local cache with a Global Cache built on
the first 20 % of the batch; the Local Cache then reuses those exact
answers on its misses instead of searching the same pairs again.  On a
frozen ``small`` hotspot batch, under ``auto`` (landmark misses) and
``csr`` (Euclidean misses), the reuse must change nothing but the search
work: answers, hits, misses and cache bytes equal a Local Cache run with
the same budget and no reuse, serial and pooled runs agree, and exactly
the misses on searched log pairs are reused.
"""

import pytest

from repro.baselines.global_cache import GlobalCacheAnswerer, split_log_and_stream
from repro.core.batch_runner import BatchProcessor
from repro.core.local_cache import LocalCacheAnswerer
from repro.core.search_space import SearchSpaceDecomposer
from repro.core.zigzag import ZigzagDecomposer
from repro.network.generators import beijing_like
from repro.obs import MetricsRegistry, use_registry
from repro.queries.workload import WorkloadGenerator
from repro.search.np_kernels import BACKEND_KNOB

BACKENDS = ["auto", "csr"]
DECOMPOSERS = {"slc-s": SearchSpaceDecomposer, "zlc": ZigzagDecomposer}
REUSED = "core.sizing_answers_reused"


def answers_key(batch):
    return [(q, r.distance, tuple(r.path), r.exact) for q, r in batch.answers]


def cache_key(batch):
    return (batch.cache_hits, batch.cache_misses, batch.cache_bytes, batch.num_clusters)


@pytest.fixture(scope="module")
def case():
    """A frozen ``small`` map and a cache-band hotspot batch."""
    graph = beijing_like("small", seed=0)
    graph.freeze()
    batch = WorkloadGenerator(graph, seed=3).cache_band(300)
    return graph, batch


def sizing(graph, batch):
    """The |GC| budget and the log answers, as ``BatchProcessor`` builds them."""
    log, _ = split_log_and_stream(batch, 0.2)
    gc = GlobalCacheAnswerer(graph)
    gc.build(log)
    return max(gc.cache_bytes, 1), gc.searched


def traced(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        answer = fn()
    return answer, registry.snapshot().counters


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", sorted(DECOMPOSERS))
def test_reuse_changes_only_the_search_work(monkeypatch, case, backend, method):
    graph, batch = case
    monkeypatch.setenv(BACKEND_KNOB, backend)
    budget, known = sizing(graph, batch)
    assert known
    reuse, counters = traced(lambda: BatchProcessor(graph).process(batch, method))
    decomposition = DECOMPOSERS[method](graph).decompose(batch)
    plain = LocalCacheAnswerer(graph, cache_bytes=budget).answer(
        decomposition, method=method
    )
    assert answers_key(reuse) == answers_key(plain)
    assert cache_key(reuse) == cache_key(plain)
    # A searched answer settles at least its source; a hit settles nothing.
    misses = [(q, r) for q, r in plain.answers if r.visited > 0]
    assert len(misses) == plain.cache_misses
    on_log = [(q, r) for q, r in misses if (q.source, q.target) in known]
    assert on_log
    assert counters[REUSED] == len(on_log)
    assert reuse.visited == plain.visited - sum(r.visited for _, r in on_log)
    assert counters["search.runs"] - len(known) == len(misses) - len(on_log)


@pytest.mark.parametrize("backend", BACKENDS)
def test_explicit_budget_reuses_nothing(monkeypatch, case, backend):
    graph, batch = case
    monkeypatch.setenv(BACKEND_KNOB, backend)
    budget, _ = sizing(graph, batch)
    sized = BatchProcessor(graph).process(batch, "slc-s")
    fixed, counters = traced(
        lambda: BatchProcessor(graph, cache_bytes=budget).process(batch, "slc-s")
    )
    assert REUSED not in counters
    assert answers_key(fixed) == answers_key(sized)
    assert cache_key(fixed) == cache_key(sized)
    assert fixed.visited > sized.visited


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_misses_reuse_without_moving_the_cache(monkeypatch, case, backend):
    graph, batch = case
    monkeypatch.setenv(BACKEND_KNOB, backend)
    budget, known = sizing(graph, batch)
    decomposition = SearchSpaceDecomposer(graph).decompose(batch)
    answerer = LocalCacheAnswerer(graph, cache_bytes=budget, batch_one_to_many=True)
    plain = answerer.answer(decomposition)
    reuse, counters = traced(lambda: answerer.answer(decomposition, known=known))
    assert [(q, r.distance) for q, r in reuse.answers] == [
        (q, r.distance) for q, r in plain.answers
    ]
    assert cache_key(reuse) == cache_key(plain)
    assert counters[REUSED] > 0
    assert reuse.visited < plain.visited


@pytest.mark.parametrize("workers", [2, 4])
def test_pool_ships_each_unit_its_own_answers(monkeypatch, case, workers):
    graph, batch = case
    monkeypatch.setenv(BACKEND_KNOB, "auto")
    serial, serial_counters = traced(lambda: BatchProcessor(graph).process(batch, "slc-s"))
    pooled, pooled_counters = traced(
        lambda: BatchProcessor(graph, workers=workers).process(batch, "slc-s")
    )
    assert pooled.workers > 1
    assert answers_key(pooled) == answers_key(serial)
    assert cache_key(pooled) == cache_key(serial)
    assert pooled.visited == serial.visited
    assert pooled_counters[REUSED] == serial_counters[REUSED] > 0
