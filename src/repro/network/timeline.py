"""Traffic timelines: the dynamic graph as a series of static snapshots.

Section I: "we use the dynamic graph in this work by viewing it as a
series of static snapshots and using the latest one to describe the
current traffic condition."  :class:`TrafficTimeline` makes that concrete:
a schedule of weight perturbations applied to a live
:class:`~repro.network.graph.RoadNetwork` as simulated time advances.
Every application bumps the graph version, which is what the dynamic batch
session keys its cache flushes on.

Two perturbation models are provided:

* :func:`congestion_snapshot` — multiplicative slowdowns on a random edge
  subset (rush-hour congestion), always keeping ``w >= euclid`` so A*
  stays admissible;
* :func:`incident_snapshot` — a localized incident: edges within a radius
  of a point get slowed hard (an accident or closure-lite).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import ConfigurationError

Perturbation = Callable[["object", random.Random], int]

logger = logging.getLogger(__name__)


def congestion_snapshot(fraction: float = 0.15, low: float = 1.2, high: float = 2.5) -> Perturbation:
    """A snapshot that slows a random ``fraction`` of edges by [low, high]x."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError("fraction must be in (0, 1]")
    if low < 1.0 or high < low:
        raise ConfigurationError("need 1 <= low <= high (slowdowns only)")

    def apply(graph, rng: random.Random) -> int:
        edges = list(graph.edges())
        chosen = rng.sample(edges, max(1, int(len(edges) * fraction)))
        for u, v, w in chosen:
            graph.set_weight(u, v, w * rng.uniform(low, high))
        return len(chosen)

    return apply


def incident_snapshot(radius: float, factor: float = 4.0) -> Perturbation:
    """A snapshot with one localized incident slowing nearby edges.

    The incident centre is a random vertex; every edge whose midpoint lies
    within ``radius`` of it is slowed by ``factor``.
    """
    if radius <= 0:
        raise ConfigurationError("radius must be positive")
    if factor < 1.0:
        raise ConfigurationError("factor must be >= 1 (slowdowns only)")

    def apply(graph, rng: random.Random) -> int:
        centre = rng.randrange(graph.num_vertices)
        cx, cy = graph.coord(centre)
        touched = 0
        for u, v, w in list(graph.edges()):
            mx = (graph.xs[u] + graph.xs[v]) / 2.0
            my = (graph.ys[u] + graph.ys[v]) / 2.0
            if (mx - cx) ** 2 + (my - cy) ** 2 <= radius * radius:
                graph.set_weight(u, v, w * factor)
                touched += 1
        return touched

    return apply


def recovery_snapshot() -> Perturbation:
    """A snapshot restoring every edge toward free flow (cannot go below
    the admissible floor because weights only shrink back to the recorded
    baseline)."""

    def apply(graph, rng: random.Random) -> int:
        # Recovery needs the baseline: stored lazily on first use.
        baseline = getattr(graph, "_timeline_baseline", None)
        if baseline is None:
            return 0
        count = 0
        for (u, v), w in baseline.items():
            if graph.weight(u, v) != w:
                graph.set_weight(u, v, w)
                count += 1
        return count

    return apply


@dataclass
class TimelineEvent:
    """One scheduled snapshot change."""

    at_seconds: float
    perturbation: Perturbation
    label: str = ""


class TrafficTimeline:
    """Replays scheduled weight snapshots onto a live road network.

    Usage::

        timeline = TrafficTimeline(graph, seed=1)
        timeline.schedule(30.0, congestion_snapshot(0.2), "rush hour")
        timeline.schedule(90.0, recovery_snapshot(), "clears")
        ...
        timeline.advance_to(current_seconds)   # applies due events

    ``advance_to`` is monotonic; events fire exactly once, in order.
    """

    def __init__(self, graph, seed: int = 0) -> None:
        self.graph = graph
        self._rng = random.Random(seed)
        self._events: List[TimelineEvent] = []
        self._next = 0
        self.clock = 0.0
        self.applied: List[Tuple[float, str, int]] = []
        # Record the free-flow baseline for recovery snapshots.
        graph._timeline_baseline = {  # noqa: SLF001 - cooperative attribute
            (u, v): w for u, v, w in graph.edges()
        }

    def schedule(self, at_seconds: float, perturbation: Perturbation, label: str = "") -> None:
        """Add an event; events may be scheduled in any order."""
        if at_seconds < 0:
            raise ConfigurationError("event time must be non-negative")
        if at_seconds < self.clock:
            raise ConfigurationError(
                f"cannot schedule at {at_seconds}s: clock already at {self.clock}s"
            )
        self._events.append(TimelineEvent(at_seconds, perturbation, label))
        # Keep the pending suffix sorted; fired events stay in place.
        pending = sorted(self._events[self._next :], key=lambda e: e.at_seconds)
        self._events[self._next :] = pending

    def advance_to(self, seconds: float) -> int:
        """Fire all events due at or before ``seconds``; returns how many."""
        if seconds < self.clock:
            raise ConfigurationError("the timeline clock cannot go backwards")
        fired = 0
        while self._next < len(self._events) and self._events[self._next].at_seconds <= seconds:
            event = self._events[self._next]
            touched = event.perturbation(self.graph, self._rng)
            self.applied.append((event.at_seconds, event.label, touched))
            logger.info(
                "traffic snapshot at t=%.1fs%s: %d edges changed",
                event.at_seconds,
                f" ({event.label})" if event.label else "",
                touched,
            )
            self._next += 1
            fired += 1
        self.clock = seconds
        return fired

    @property
    def pending_events(self) -> int:
        return len(self._events) - self._next

    @property
    def next_event_at(self) -> Optional[float]:
        """Instant of the earliest event not yet fired (``None`` when exhausted).

        Lets a caller ask "would ``advance_to(t)`` change the metric?"
        (``next_event_at <= t``) without advancing the clock.
        """
        if self._next < len(self._events):
            return self._events[self._next].at_seconds
        return None
