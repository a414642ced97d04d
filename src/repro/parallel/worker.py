"""Worker-side state and entry points for the multiprocess engine.

The engine shares the road network with its workers in one of three ways:

* **fork** (Linux default): the parent sets the module globals below just
  before the pool forks, so every child inherits the graph and a ready
  answerer copy-on-write — the graph is never pickled.
* **spawn / forkserver + shared memory** (default when the engine holds a
  frozen graph): the pool initialiser receives a pickled
  ``(CSRHandle, answerer_kind, answerer_kwargs)`` payload — shm segment
  *names* plus metadata, a few hundred bytes — and each worker attaches the
  parent's CSR buffers zero-copy via :meth:`CSRGraph.attach`.
* **spawn / forkserver fallback**: a pickled
  ``(graph, answerer_kind, answerer_kwargs)`` payload rebuilds the whole
  graph once per worker process.

Either way a worker only ever answers whole work units (one query cluster
per call), so all cache state stays private to the unit — exactly the
locality argument that makes the paper's decomposed batches
embarrassingly parallel.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from typing import Tuple

from ..core.clusters import Decomposition, QueryCluster
from ..core.results import BatchAnswer
from ..exceptions import ConfigurationError, FaultInjectionError
from ..obs import MetricsRegistry, use_registry
from ..resilience.deadline import Deadline, use_deadline
from ..resilience.faults import FAULT_EXIT_CODE, FaultDirective
from ..resilience.watchdog import HEARTBEAT_DONE, HEARTBEAT_START

#: Answerer kinds a worker knows how to build.
ANSWERER_KINDS = ("local-cache", "r2r", "one-by-one")

# Per-process state: set in the parent before a fork pool starts, or by
# :func:`init_spawn` / :func:`init_spawn_shared` inside each spawned worker.
_GRAPH = None
_ANSWERER = None
# Shm-attached CSR snapshot (spawn + shared-memory path), kept for cleanup.
_ATTACHED = None
# One-shot flag: the first metrics-collecting unit after an attach folds the
# attach event into its snapshot so the parent's registry sees it.
_ATTACH_PENDING = False
# Heartbeat queue for the parent's watchdog: set in the parent before a
# fork pool starts (inherited), or via the spawn initialisers' second
# initarg (mp queues pickle through the Process-args channel).
_HEARTBEAT = None


def build_answerer(graph, kind: str, kwargs: dict):
    """Construct the named answerer over ``graph``."""
    kwargs = dict(kwargs or {})
    if kind == "local-cache":
        from ..core.local_cache import LocalCacheAnswerer

        return LocalCacheAnswerer(graph, **kwargs)
    if kind == "r2r":
        from ..core.r2r import RegionToRegionAnswerer

        return RegionToRegionAnswerer(graph, **kwargs)
    if kind == "one-by-one":
        from ..baselines.one_by_one import OneByOneAnswerer

        return OneByOneAnswerer(graph, **kwargs)
    raise ConfigurationError(
        f"unknown answerer kind {kind!r}; choose from {ANSWERER_KINDS}"
    )


def set_parent_state(graph, answerer) -> None:
    """Install fork-inherited state (called in the parent process)."""
    global _GRAPH, _ANSWERER
    _GRAPH = graph
    _ANSWERER = answerer


def clear_parent_state() -> None:
    set_parent_state(None, None)


def set_heartbeat(queue) -> None:
    """Install the watchdog heartbeat queue for this process."""
    global _HEARTBEAT
    _HEARTBEAT = queue


def _beat(event: str, unit: int) -> None:
    """Best-effort heartbeat: a lost beat only delays watchdog detection."""
    if _HEARTBEAT is not None:
        try:
            _HEARTBEAT.put((os.getpid(), unit, event))
        except Exception:  # pragma: no cover - queue torn down mid-unit
            pass


def init_spawn(payload: bytes, heartbeat=None) -> None:
    """Pool initialiser for spawn platforms: rebuild state from a pickle."""
    graph, kind, kwargs = pickle.loads(payload)
    set_heartbeat(heartbeat)
    set_parent_state(graph, build_answerer(graph, kind, kwargs))


def init_spawn_shared(payload: bytes, heartbeat=None) -> None:
    """Pool initialiser for spawn platforms with a shared-memory CSR graph.

    ``payload`` pickles ``(CSRHandle, answerer_kind, answerer_kwargs)`` —
    no graph data crosses the process boundary; the worker attaches the
    parent's buffers by segment name.  The attachment is closed at worker
    exit; the parent owns (and unlinks) the segment.
    """
    global _ATTACHED, _ATTACH_PENDING
    handle, kind, kwargs = pickle.loads(payload)
    set_heartbeat(heartbeat)
    from ..network.csr import CSRGraph

    graph = CSRGraph.attach(handle)
    _ATTACHED = graph
    _ATTACH_PENDING = True
    atexit.register(release_attached)
    # Build the numpy kernel view over the attached buffers eagerly: the
    # first query unit should not pay view construction, and a buffer
    # export that cannot be taken over the shm attachment fails at pool
    # init rather than mid-unit.
    from ..search import np_kernels

    np_kernels.warm_view(graph)
    set_parent_state(graph, build_answerer(graph, kind, kwargs))


def release_attached() -> None:
    """Close this process's shm attachment (idempotent; atexit hook)."""
    global _ATTACHED
    attached, _ATTACHED = _ATTACHED, None
    if attached is not None:
        try:
            attached.release()
        except Exception:  # pragma: no cover - teardown best effort
            pass


def answer_one(answerer, cluster: QueryCluster, known=None) -> BatchAnswer:
    """Answer one work unit with ``answerer`` (any supported kind).

    ``known`` — exact answers for some of the unit's pairs — only ever
    comes with a Local Cache answerer, whose misses reuse them.  Each unit
    starts with an empty ALT vector memo, so its work and counters are the
    same in any worker and in-process.
    """
    from ..baselines.one_by_one import OneByOneAnswerer
    from ..search.landmarks import forget_vectors

    forget_vectors(answerer.graph)
    if isinstance(answerer, OneByOneAnswerer):
        return answerer.answer(cluster.as_query_set())
    unit = Decomposition([cluster], "unit", 0.0)
    if known:
        return answerer.answer(unit, known=known)
    return answerer.answer(unit)


def execute_directive(directive: FaultDirective, unit: int) -> None:
    """Carry out one injected fault inside the worker process.

    ``hang`` sleeps and then lets the unit proceed (a slowdown the parent
    may or may not have timed out on); ``crash`` raises so the unit fails
    cleanly; ``exit`` kills the whole process without cleanup, which
    breaks the pool — the parent-side signal for a dead worker.
    """
    if directive.kind == "hang":
        time.sleep(directive.delay_seconds)
    elif directive.kind == "crash":
        raise FaultInjectionError(f"injected crash in unit {unit}")
    elif directive.kind == "exit":
        os._exit(FAULT_EXIT_CODE)
    else:  # pragma: no cover - plan validation rejects unknown kinds
        raise ConfigurationError(f"unknown fault directive {directive.kind!r}")


def answer_unit(payload: Tuple[int, QueryCluster, bool, object, object, object]):
    """Pool task: answer one ``(index, cluster, collect_metrics, fault,
    deadline_budget, known)`` unit.

    Returns ``(index, BatchAnswer, pid, started_wall, busy_seconds,
    metrics_snapshot_or_None)``; ``started_wall`` is ``time.time()`` so the
    parent can compute the queue wait against its own submit stamp.  When
    ``collect_metrics`` is set (the parent has a live registry), the unit
    runs under a fresh per-unit :class:`~repro.obs.MetricsRegistry` and its
    snapshot rides home with the answer, spans tagged with this worker's
    pid — the parent merges snapshots so ``workers=k`` reports fleet-wide
    totals.  ``fault`` is ``None`` or the :class:`FaultDirective` the
    parent's :class:`~repro.resilience.FaultPlan` scheduled for this
    attempt; the plan itself never crosses the process boundary.
    ``deadline_budget`` is ``None`` or remaining seconds, re-armed against
    this process's own monotonic clock (a :class:`Deadline` holds an
    absolute instant, which does not transfer between processes); the
    resulting :class:`~repro.exceptions.DeadlineExceededError` pickles
    home through the result pipe.  ``known`` is ``None`` or the exact
    answers of the unit's own pairs that its misses reuse (see
    :meth:`~repro.parallel.ParallelBatchEngine.execute`).

    Heartbeats bracket the unit (start/done) so the parent's watchdog can
    tell a busy worker from a hung one.
    """
    index, cluster, collect, fault, *rest = payload
    budget = rest[0] if rest else None  # legacy 4-tuple: no deadline
    known = rest[1] if len(rest) > 1 else None
    if _ANSWERER is None:  # pragma: no cover - engine always initialises
        raise ConfigurationError("worker used before initialisation")
    _beat(HEARTBEAT_START, index)
    try:
        if fault is not None:
            execute_directive(fault, index)
        deadline = Deadline(budget) if budget is not None else None
        started = time.time()
        t0 = time.perf_counter()
        if not collect:
            with use_deadline(deadline):
                answer = answer_one(_ANSWERER, cluster, known)
            busy = time.perf_counter() - t0
            return index, answer, os.getpid(), started, busy, None
        global _ATTACH_PENDING
        registry = MetricsRegistry()
        if _ATTACH_PENDING and _ATTACHED is not None:
            # Report this worker's zero-copy attach exactly once, riding home
            # with the first collected unit's snapshot.
            registry.counter("csr.shm_attaches").add(1)
            registry.counter("csr.shm_attached_bytes").add(_ATTACHED.nbytes)
            _ATTACH_PENDING = False
        with use_registry(registry), use_deadline(deadline):
            answer = answer_one(_ANSWERER, cluster, known)
        busy = time.perf_counter() - t0
        pid = os.getpid()
        snapshot = registry.snapshot()
        for span in snapshot.spans:
            span["attrs"].update({"pid": pid, "unit": index})
        return index, answer, pid, started, busy, snapshot
    finally:
        _beat(HEARTBEAT_DONE, index)
