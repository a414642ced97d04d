"""Online micro-batch streaming front end over the batch pipelines.

The package turns the paper's offline batch algorithms into a query
*service*: a continuous arrival stream is assembled into micro-batch
windows (duration OR size trigger), admission-controlled with a
degrade-before-drop shedding policy, and dispatched to the existing
:class:`~repro.service.BatchQueryService` with a version-keyed
cross-window path cache in front.  Every scheduling decision goes
through a swappable clock, so the same loop replays deterministically
under :class:`SimulatedClock` and measures real latency under
:class:`MonotonicClock`.
"""

from .admission import (
    ADMITTED,
    POLICIES,
    SHED_DEGRADE,
    SHED_DROP,
    AdmissionController,
)
from .clock import MonotonicClock, SimulatedClock, make_clock
from .journal import (
    ArrivalJournal,
    JournalScan,
    OUTCOME_ANSWERED,
    OUTCOME_DEAD_LETTER,
    scan_journal,
)
from .microbatch import (
    TRIGGER_DURATION,
    TRIGGER_FLUSH,
    TRIGGER_SIZE,
    TRIGGERS,
    MicroBatcher,
    MicroWindow,
    assemble_micro_batches,
)
from .service import (
    TRIGGER_ADMISSION,
    StreamingQueryService,
    StreamReport,
    StreamWindowRecord,
    latency_percentile,
)

__all__ = [
    "ADMITTED",
    "POLICIES",
    "SHED_DEGRADE",
    "SHED_DROP",
    "AdmissionController",
    "ArrivalJournal",
    "JournalScan",
    "OUTCOME_ANSWERED",
    "OUTCOME_DEAD_LETTER",
    "scan_journal",
    "MonotonicClock",
    "SimulatedClock",
    "make_clock",
    "TRIGGER_ADMISSION",
    "TRIGGER_DURATION",
    "TRIGGER_FLUSH",
    "TRIGGER_SIZE",
    "TRIGGERS",
    "MicroBatcher",
    "MicroWindow",
    "assemble_micro_batches",
    "StreamingQueryService",
    "StreamReport",
    "StreamWindowRecord",
    "latency_percentile",
]
