"""Event types of the RTDBMS simulator.

Three kinds of events advance the simulation clock in every run:

* ``ARRIVAL`` — a transaction is submitted to the database,
* ``COMPLETION`` — the running transaction finishes, and
* ``ACTIVATION`` — a periodic tick requested by the balance-aware policy
  (Section III-D, time-based activation).

Fault injection (:mod:`repro.faults`) adds four more, never scheduled
without a fault plan:

* ``FAULT`` — a planned abort/stall trigger on a running transaction,
* ``CRASH`` / ``RECOVER`` — a server crash window opens / closes, and
* ``RETRY`` — an aborted transaction's re-submission delay elapsed.

Events carry a monotonically increasing sequence number so that
simultaneous events are processed in a deterministic order: completions
first (freeing dependents), then fault triggers and crash transitions,
then arrivals and retries, then activation ticks.  The relative order of
the original three kinds is unchanged, keeping fault-free runs
byte-identical to the pre-fault engine.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventKind", "Event"]


class EventKind(enum.IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    COMPLETION = 0
    FAULT = 1
    CRASH = 2
    RECOVER = 3
    ARRIVAL = 4
    RETRY = 5
    ACTIVATION = 6


class Event(NamedTuple):
    """One scheduled simulator event.

    The event is its own heap entry: the fields are declared in heap
    order, so plain tuple comparison orders events by ``(time, kind,
    seq)``.  ``seq`` is unique within a run (a resumed run continues the
    checkpointed counter), so a comparison never reaches ``txn_id``.

    ``token`` invalidates stale completion events: the engine bumps its
    completion token whenever the running transaction is preempted, so a
    completion event scheduled for the old dispatch no longer applies.
    ``txn_id`` is ``None`` for activation ticks.
    """

    time: float
    kind: EventKind
    seq: int
    txn_id: int | None = None
    token: int = 0

    def sort_key(self) -> tuple[float, int, int]:
        """Heap ordering: by time, then kind priority, then insertion."""
        return (self.time, int(self.kind), self.seq)
