"""A deterministic binary-heap event queue.

Thin wrapper around :mod:`heapq` over the events themselves: an
:class:`~repro.sim.events.Event` is a tuple whose leading fields are
``(time, kind, seq)``, so tuple comparison is the heap order (the same
order as :meth:`~repro.sim.events.Event.sort_key`) with no wrapper entry
per push.  Offers the batch-pop the engine needs: all events sharing the
earliest timestamp are handled within a single scheduling point.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.sim.events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :class:`~repro.sim.events.Event` objects.

    Examples
    --------
    >>> from repro.sim.events import Event, EventKind
    >>> q = EventQueue()
    >>> q.push(Event(2.0, EventKind.ARRIVAL, seq=1, txn_id=7))
    >>> q.push(Event(2.0, EventKind.COMPLETION, seq=2, txn_id=3))
    >>> [e.kind.name for e in q.pop_batch()]
    ['COMPLETION', 'ARRIVAL']
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Event] = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def peek_time(self) -> float:
        """Timestamp of the earliest pending event."""
        if not self._heap:
            raise IndexError("peek on empty event queue")
        return self._heap[0][0]

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop on empty event queue")
        return heapq.heappop(self._heap)

    def pop_batch(self) -> list[Event]:
        """Pop every event sharing the earliest timestamp, in kind order."""
        if not self._heap:
            raise IndexError("pop_batch on empty event queue")
        heap = self._heap
        first = heapq.heappop(heap)
        time = first[0]
        batch = [first]
        # repro-lint: disable=RL003 -- batch identity: only events pushed
        # with a bit-identical timestamp belong to one scheduling point; a
        # tolerance here would merge distinct points an ulp apart.
        while heap and heap[0][0] == time:
            batch.append(heapq.heappop(heap))
        return batch

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate pending events in an unspecified (heap) order."""
        return iter(self._heap)
