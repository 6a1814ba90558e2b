"""A fixed pure-Python reference kernel that measures the host's speed.

On a shared host the same code runs up to a third slower from one
minute to the next, because other tenants load the physical cores.  So
each sample times this kernel right before and right after each timed
part of its workload, and reports that part in *reference seconds*:
measured seconds × ``NOMINAL_S`` ÷ the mean of the two kernel times
around it (:func:`speed`).  The host's speed moves within seconds, so
the kernel times that bracket a measurement follow it more closely than
any figure taken over a whole run.  The kernel uses no simulator code,
and a full collection runs before it (outside the timed region), so
garbage the workload left behind is not collected on the kernel's
clock.  It holds little memory,
so it cannot raise the sample's peak RSS.  Raw seconds are kept next to
every normalised value.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

#: Kernel time that defines one reference second (about its median on
#: the 2-core host the benchmark was tuned on, so reference seconds read
#: close to wall seconds there).
NOMINAL_S = 0.3

_LIVE = 2000


class _Rec:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key: int, value: float, weight: int) -> None:
        self.key = key
        self.value = value
        self.weight = weight


def kernel(n: int = 250_000) -> float:
    """Heap, dict, small-object and float churn, shaped like the simulator's.

    At most ``_LIVE`` records are alive at once.
    """
    rng = random.Random(12345)
    heap: list[tuple[float, int, _Rec]] = []
    table: dict[int, _Rec] = {}
    acc = 0.0
    for i in range(n):
        rec = _Rec(i, rng.random(), i % 7)
        heapq.heappush(heap, (rec.value, i, rec))
        table[i] = rec
        if len(heap) > _LIVE:
            value, key, popped = heapq.heappop(heap)
            acc += value * popped.weight
            del table[key]
    return acc + len(table)


def kernel_seconds() -> float:
    gc.collect()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Reference seconds per measured second, from two kernel times."""
    return NOMINAL_S / ((before + after) / 2.0)
