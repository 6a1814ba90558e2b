"""Benchmark-side tracing: spans, hot-call timers, GC pauses and RSS.

Everything here wraps calls into the simulator's public functions from
the outside; nothing inside ``src/`` is instrumented.  Spans are kept in
memory and written out once the traced run finishes.

* A **span** covers one coarse layer call (``generate``, ``Simulator``
  construction, ``run``, ``bind``, one checkpoint save, ...): name,
  start, end and parent, plus the GC pauses that fell inside it and the
  current / peak RSS at both of its boundaries.
* A **hot call** (``policy.select``, the sink's ``write``) happens
  hundreds of thousands of times per run, so it is not a span: each call
  appends its duration to one flat array, summarised at the end.
* GC pauses come from ``gc.callbacks``; each pause is attributed to
  every span it falls inside.
"""

from __future__ import annotations

import bisect
import gc
import os
import resource
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm", "rb") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * _PAGE_BYTES / 2**20


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux folds the launching
    process's high-water mark into a child's ``ru_maxrss`` at ``exec``,
    so the latter would charge the parent ``run.py``'s memory to the
    workload.
    """
    with open("/proc/self/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest high-water RSS of this process's reaped children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


class Span:
    __slots__ = (
        "id", "name", "parent", "start", "end",
        "rss_start_mb", "rss_end_mb", "peak_rss_end_mb",
    )

    def __init__(self, span_id: int, name: str, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.rss_start_mb = rss_mb()
        self.rss_end_mb = self.rss_start_mb
        self.peak_rss_end_mb = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patches:
    """Attributes of classes or modules replaced until the block ends.

    Use as a context manager; on exit every replaced attribute is put
    back.  Classes, not instances, are patched: a checkpoint pickles the
    policy, and a closure in its instance dict cannot be pickled.  A
    module function is patched in the module that calls it.
    """

    def __init__(self) -> None:
        self._saved: dict[tuple[Any, str], Any] = {}

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def wrap(
        self, owner: Any, attr: str, wrap: Callable[[Callable[..., Any]], Any]
    ) -> None:
        """Replace ``owner.attr`` by ``wrap(owner.attr)``, once per block."""
        if (owner, attr) in self._saved:
            return
        self._saved[(owner, attr)] = vars(owner).get(attr)
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def restore(self) -> None:
        for (owner, attr), own in reversed(self._saved.items()):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()


class Tracer:
    """Collects spans, hot-call durations and GC pauses for one process.

    Use as a context manager: the GC callback is registered on entry;
    on exit it is removed and every patched attribute is restored.
    """

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.calls: dict[str, array] = {}
        self._stack: list[Span] = []
        self._gc_begun = 0.0
        self._gc_starts = array("d")
        self._gc_ends = array("d")
        self._gc_prefix = array("d", [0.0])
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _on_gc(self, phase: str, info: dict) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_begun = now
        else:
            self._gc_starts.append(self._gc_begun)
            self._gc_ends.append(now)
            self._gc_prefix.append(self._gc_prefix[-1] + (now - self._gc_begun))

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.rss_end_mb = rss_mb()
            span.peak_rss_end_mb = peak_rss_mb()
            self._stack.pop()

    def wrap_span(self, owner: Any, attr: str, name: str) -> None:
        """Patch ``owner.attr`` so that each call opens a span ``name``."""
        span = self.span

        def wrap(inner: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                with span(name):
                    return inner(*args, **kwargs)

            return traced

        self._patches.wrap(owner, attr, wrap)

    def wrap_calls(self, owner: Any, attr: str, name: str) -> None:
        """Patch ``owner.attr`` so that each call's duration lands in one array."""
        append = self.calls.setdefault(name, array("d")).append
        clock = perf_counter

        def wrap(inner: Callable[..., Any]) -> Callable[..., Any]:
            def timed(*args: Any) -> Any:
                t0 = clock()
                out = inner(*args)
                append(clock() - t0)
                return out

            return timed

        self._patches.wrap(owner, attr, wrap)

    # -- queries --------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def gc_within(self, name: str) -> tuple[float, int]:
        """GC pause seconds and collection count inside spans ``name``."""
        seconds = 0.0
        count = 0
        for span in self.named(name):
            lo = bisect.bisect_left(self._gc_starts, span.start)
            hi = bisect.bisect_right(self._gc_ends, span.end)
            if hi > lo:
                seconds += self._gc_prefix[hi] - self._gc_prefix[lo]
                count += hi - lo
        return seconds, count

    def call_stats(self, name: str) -> dict[str, float]:
        durations = sorted(self.calls.get(name, ()))
        return {
            "calls": len(durations),
            "total_s": sum(durations),
            "p50_s": quantile(durations, 0.5),
            "p99_s": quantile(durations, 0.99),
        }

    def as_dict(self) -> dict[str, Any]:
        """Spans (times relative to the tracer's creation) and aggregates."""
        origin = self.origin
        gc_s = self._gc_prefix[-1]
        return {
            "spans": [
                {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "rss_start_mb": span.rss_start_mb,
                    "rss_end_mb": span.rss_end_mb,
                    "peak_rss_end_mb": span.peak_rss_end_mb,
                }
                for span in self.spans
            ],
            "hot_calls": {name: self.call_stats(name) for name in sorted(self.calls)},
            "gc": {"collections": len(self._gc_starts), "pause_s": gc_s},
        }
