"""Unit tests for the event queue."""

import pickle
import random

import pytest

from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind


def ev(time, kind=EventKind.ARRIVAL, seq=0, txn_id=None):
    return Event(time, kind, seq, txn_id)


def test_pop_order_is_chronological():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.push(ev(t, seq=int(t)))
    assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]


def test_pop_batch_groups_equal_timestamps():
    q = EventQueue()
    q.push(ev(1.0, EventKind.ARRIVAL, seq=1))
    q.push(ev(1.0, EventKind.COMPLETION, seq=2))
    q.push(ev(2.0, EventKind.ARRIVAL, seq=3))
    batch = q.pop_batch()
    assert [e.kind for e in batch] == [EventKind.COMPLETION, EventKind.ARRIVAL]
    assert len(q) == 1


def test_same_time_same_kind_ordered_by_seq():
    q = EventQueue()
    q.push(ev(1.0, seq=2, txn_id=20))
    q.push(ev(1.0, seq=1, txn_id=10))
    assert [e.txn_id for e in q.pop_batch()] == [10, 20]


def test_peek_time():
    q = EventQueue()
    q.push(ev(5.0))
    assert q.peek_time() == 5.0
    assert len(q) == 1


def test_empty_queue_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()
    with pytest.raises(IndexError):
        q.pop_batch()
    with pytest.raises(IndexError):
        q.peek_time()


def test_bool_and_iter():
    q = EventQueue()
    assert not q
    q.push(ev(1.0))
    assert q
    assert len(list(iter(q))) == 1


def test_pop_batch_order_equals_sort_key_order_under_ties():
    # Few distinct times and kinds, so batches are large and mix kinds;
    # seq is unique per event, as the engine guarantees within a run.
    rng = random.Random(20240612)
    kinds = list(EventKind)
    for _ in range(50):
        events = [
            Event(
                float(rng.randrange(4)),
                rng.choice(kinds),
                seq,
                rng.choice([None, rng.randrange(10)]),
                token=rng.randrange(3),
            )
            for seq in rng.sample(range(1000), 40)
        ]
        q = EventQueue()
        for event in events:
            q.push(event)
        drained = []
        while q:
            batch = q.pop_batch()
            assert len({e.time for e in batch}) == 1
            drained.extend(batch)
        assert drained == sorted(events, key=Event.sort_key)


@pytest.mark.parametrize(
    "event",
    [
        Event(3.5, EventKind.ACTIVATION, 11),
        Event(2.0, EventKind.COMPLETION, 12, txn_id=7, token=4),
    ],
    ids=["no-txn", "with-token"],
)
def test_event_pickle_round_trip(event):
    # Checkpoints pickle the event heap as-is.
    restored = pickle.loads(pickle.dumps(event))
    assert type(restored) is Event
    assert restored == event
    assert restored.kind is event.kind
    assert (restored.txn_id, restored.token) == (event.txn_id, event.token)
