"""Structured JSON-lines event logs: write, read, validate.

One simulation run serialises to one ``.jsonl`` file — one JSON object
per line, schema-versioned so readers can reject logs they do not
understand.  The format is deliberately boring: it round-trips through
``json`` exactly, greps cleanly, and loads into any dataframe library.

Schema (version 1)
------------------
The first record is the run header::

    {"schema": 1, "kind": "run_start", "t": 0.0,
     "policy": "asets", "n": 1000, "servers": 1}

Every subsequent record carries ``kind`` and ``t`` (simulated time):

============= ==========================================================
``kind``       extra fields
============= ==========================================================
arrival        ``txn`` [+ ``deps``]
dispatch       ``txn``, ``overhead``
preempt        ``txn``
overhead       ``txn``, ``amount``
completion     ``txn``, ``tardiness`` [+ ``response_time``]
sched          ``ready``, ``running``, ``select_s``
fault.stall    ``txn``, ``amount``
fault.abort    ``txn``, ``lost``, ``attempt`` [+ ``exhausted``]
retry          ``txn``, ``attempt``, ``deadline``
fault.crash    ``down``
fault.recover  ``down``
shed           ``txn``, ``reason``
run_end        [+ ``completed``, ``tardy``, ``makespan``,
               ``aborted``, ``shed``, ``retries``]
============= ==========================================================

Fields in brackets are *additive* schema-1 extensions (still schema 1):
``deps`` is the transaction's dependency list (omitted when empty),
``response_time`` is ``f_i - a_i``, and the ``run_end`` trailer carries
the run totals.  The fault kinds (``fault.*``, ``retry``, ``shed``) are
likewise additive: only runs under a :mod:`repro.faults` plan emit them,
and the ``run_end`` outcome counters appear only when nonzero — a
fault-free log is byte-identical to the pre-fault format.  Logs written
before these fields existed remain valid; readers — including
:mod:`repro.obs.analyze` — must tolerate their absence.

Two additive schema-1 extensions support constant-memory streaming
(:mod:`repro.obs.streaming`):

* ``window.snapshot`` records — one per closed tumbling window, carrying
  ``window``, ``start``, ``end``, ``arrivals``, ``completions``,
  ``tardy``, ``miss_rate``, ``throughput``, ``tardiness``,
  ``utilization``, ``queue_max``, ``queue_mean`` [+ ``partial``];
* sampled logs — the header gains ``"sample": r`` (the per-transaction
  keep rate) and completions of *unsampled* tardy transactions are still
  written, marked ``"sampled": false``, so tardy counts and tardiness
  totals stay exact under sampling (:class:`EventSampler`).

Reading is strict by default: a missing/alien header or an unparseable
line raises :class:`~repro.errors.ObservabilityError`.  Pass
``strict=False`` to read partial logs (e.g. from an aborted run), or use
:func:`read_tolerant` to accept a log whose *final* line was cut short
by a crash (the writer flushes per event, so at most one trailing line
can ever be torn).

Rotation
--------
:class:`RotatingJsonlWriter` splits one logical log over size-bounded
parts — ``events-0001.jsonl``, ``events-0002.jsonl``, ... — described by
a manifest (``events.manifest.json``)::

    {"schema": 1, "kind": "manifest", "base": "events.jsonl",
     "parts": ["events-0001.jsonl", ...], "records": 12345,
     "max_bytes": 1048576}

The manifest is rewritten at every rotation and at close, so after a
crash it lists every part that exists (the final part may end in a torn
line, exactly like the single-file case).  :func:`read_tolerant` accepts
the base path, the manifest path, or a plain single-file log, and
iterates the whole set transparently.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, Protocol

from repro.errors import CheckpointError, ObservabilityError

__all__ = [
    "SCHEMA_VERSION",
    "KEEP_ALWAYS_KINDS",
    "EVENT_SCHEMAS",
    "EventSchema",
    "EventSink",
    "EventSampler",
    "JsonlWriter",
    "RotatingJsonlWriter",
    "write",
    "read",
    "read_tolerant",
    "iter_records",
]

#: Current event-log schema version; bumped on incompatible changes.
SCHEMA_VERSION = 1

#: Compact one-line record encoder, built once: ``json.dumps`` with
#: non-default ``separators`` constructs a fresh encoder per call, which
#: the per-event writers would pay on every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Event kinds an :class:`EventSampler` must never drop: run framing,
#: aggregate window snapshots, and whole-system fault transitions.
KEEP_ALWAYS_KINDS = frozenset(
    {"run_start", "run_end", "window.snapshot", "fault.crash", "fault.recover"}
)


@dataclass(frozen=True)
class EventSchema:
    """The declared field contract of one event kind.

    ``required`` fields appear in every record of the kind; ``optional``
    fields are the *additive* schema-1 extensions (present only under
    the conditions documented in the module header).  A field in
    neither set is undeclared — emitting it is a schema drift.
    """

    required: frozenset[str]
    optional: frozenset[str] = field(default_factory=frozenset)

    @property
    def all_fields(self) -> frozenset[str]:
        return self.required | self.optional


#: The declarative schema-1 registry: one entry per event kind, kept in
#: sync with the record builders in :mod:`repro.obs.recorder` and the
#: window snapshots of :mod:`repro.obs.streaming`.  The lint rule RL012
#: parses this literal statically and cross-checks every emit site and
#: every :mod:`repro.obs.analyze` consumer against it, so edit the
#: builders and this table together.  Evolution is additive-only: a
#: required field can never be removed or demoted within schema 1.
#:
#: ``sampled`` is universal (the :class:`EventSampler` may stamp it on
#: any kept record) and is therefore not repeated per kind.
EVENT_SCHEMAS: dict[str, EventSchema] = {
    "run_start": EventSchema(
        required=frozenset({"schema", "kind", "t", "policy", "n", "servers"}),
        optional=frozenset({"sample"}),
    ),
    "arrival": EventSchema(
        required=frozenset({"kind", "t", "txn"}),
        optional=frozenset({"deps"}),
    ),
    "dispatch": EventSchema(
        required=frozenset({"kind", "t", "txn", "overhead"}),
    ),
    "preempt": EventSchema(
        required=frozenset({"kind", "t", "txn"}),
    ),
    "overhead": EventSchema(
        required=frozenset({"kind", "t", "txn", "amount"}),
    ),
    "completion": EventSchema(
        required=frozenset({"kind", "t", "txn", "tardiness"}),
        optional=frozenset({"response_time"}),
    ),
    "sched": EventSchema(
        required=frozenset({"kind", "t", "ready", "running", "select_s"}),
    ),
    "fault.stall": EventSchema(
        required=frozenset({"kind", "t", "txn", "amount"}),
    ),
    "fault.abort": EventSchema(
        required=frozenset({"kind", "t", "txn", "lost", "attempt"}),
        optional=frozenset({"exhausted"}),
    ),
    "retry": EventSchema(
        required=frozenset({"kind", "t", "txn", "attempt", "deadline"}),
    ),
    "fault.crash": EventSchema(
        required=frozenset({"kind", "t", "down"}),
    ),
    "fault.recover": EventSchema(
        required=frozenset({"kind", "t", "down"}),
    ),
    "shed": EventSchema(
        required=frozenset({"kind", "t", "txn", "reason"}),
    ),
    "run_end": EventSchema(
        required=frozenset({"kind", "t", "completed", "tardy", "makespan"}),
        optional=frozenset({"aborted", "shed", "retries"}),
    ),
    "window.snapshot": EventSchema(
        required=frozenset(
            {
                "kind",
                "t",
                "window",
                "start",
                "end",
                "arrivals",
                "completions",
                "tardy",
                "miss_rate",
                "throughput",
                "tardiness",
                "utilization",
                "queue_max",
                "queue_mean",
            }
        ),
        optional=frozenset({"partial"}),
    ),
    "manifest": EventSchema(
        required=frozenset(
            {"schema", "kind", "base", "parts", "records", "max_bytes"}
        ),
    ),
}


class EventSink(Protocol):
    """Anything that accepts event records one at a time."""

    def write(self, record: dict) -> None: ...  # pragma: no cover


class JsonlWriter:
    """Stream records to a ``.jsonl`` file, one JSON object per line.

    Usable as a context manager::

        with JsonlWriter(path) as out:
            for record in events:
                out.write(record)
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._file: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.records_written = 0

    def write(self, record: dict) -> None:
        if self._file is None:
            raise ObservabilityError(f"writer for {self.path} already closed")
        self._file.write(_encode(record) + "\n")
        # Crash tolerance: flush per event so a killed process loses at
        # most the line it was writing — which :func:`read_tolerant`
        # then tolerates instead of rejecting the whole log.
        self._file.flush()
        self.records_written += 1

    def ckpt_state(self) -> dict:
        """Checkpoint state: the position to truncate-and-continue from.

        Only the path and the committed record count are needed: every
        record is flushed before the engine can checkpoint past it, so
        a resume cuts the file back to ``records`` complete lines and
        reopens it for append (:meth:`resume`).
        """
        return {
            "writer": "plain",
            "path": str(self.path),
            "records": self.records_written,
        }

    @classmethod
    def resume(cls, state: Mapping) -> "JsonlWriter":
        """Reopen a crashed run's log at its checkpointed position.

        Truncates the file back to the checkpoint's record count —
        discarding everything written between the checkpoint and the
        crash, torn tail included — and continues appending, so the
        finished log is byte-identical to an uninterrupted run's.
        """
        path = pathlib.Path(str(state["path"]))
        records = int(state["records"])
        _truncate_to_records(path, records)
        writer = cls.__new__(cls)
        writer.path = path
        writer._file = path.open("a", encoding="utf-8")
        writer.records_written = records
        return writer

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RotatingJsonlWriter:
    """A :class:`JsonlWriter` that rotates into size-bounded parts.

    ``path`` is the *logical* log path (e.g. ``out/events.jsonl``); the
    actual bytes land in numbered sibling parts
    (``out/events-0001.jsonl``, ...) listed by a manifest at
    ``out/events.manifest.json``.  A record never straddles parts: when
    appending a line would push the current part past ``max_bytes`` (and
    the part already holds at least one record), the writer rolls over
    first.  The manifest is rewritten on every rotation and on close, so
    it is never more than one part behind reality.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        max_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if max_bytes < 1:
            raise ObservabilityError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self._stem = self.path.stem
        self._dir = self.path.parent
        self.manifest_path = self._dir / f"{self._stem}.manifest.json"
        self.parts: list[pathlib.Path] = []
        self.records_written = 0
        self._part_bytes = 0
        self._part_records = 0
        self._file: IO[str] | None = None
        self._open_part()

    def _open_part(self) -> None:
        part = self._dir / f"{self._stem}-{len(self.parts) + 1:04d}.jsonl"
        self.parts.append(part)
        self._file = part.open("w", encoding="utf-8")
        self._part_bytes = 0
        self._part_records = 0
        self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "schema": SCHEMA_VERSION,
            "kind": "manifest",
            "base": self.path.name,
            "parts": [p.name for p in self.parts],
            "records": self.records_written,
            "max_bytes": self.max_bytes,
        }
        # Atomic rewrite: a crash mid-write must leave either the old
        # manifest or the new one, never a torn file — write a sibling
        # temp file (same directory, so the rename cannot cross
        # filesystems) and swap it in with one os.replace.
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp, self.manifest_path)

    def write(self, record: dict) -> None:
        if self._file is None:
            raise ObservabilityError(f"writer for {self.path} already closed")
        line = _encode(record) + "\n"
        size = len(line.encode("utf-8"))
        if self._part_records and self._part_bytes + size > self.max_bytes:
            self._file.close()
            self._open_part()
        assert self._file is not None
        self._file.write(line)
        self._file.flush()
        self._part_bytes += size
        self._part_records += 1
        self.records_written += 1

    def ckpt_state(self) -> dict:
        """Checkpoint state: part list and both record/byte cursors.

        Captures everything :meth:`resume` needs to reproduce this
        writer mid-stream: the committed part names, the total record
        count, and the current part's record and byte cursors (rotation
        decisions depend on ``_part_bytes``, so it must round-trip
        exactly for resumed rotation points to match the golden run).
        """
        return {
            "writer": "rotating",
            "path": str(self.path),
            "max_bytes": self.max_bytes,
            "parts": [p.name for p in self.parts],
            "records": self.records_written,
            "part_bytes": self._part_bytes,
            "part_records": self._part_records,
        }

    @classmethod
    def resume(cls, state: Mapping) -> "RotatingJsonlWriter":
        """Reopen a crashed rotated log at its checkpointed position.

        Parts the crashed run opened *after* the checkpoint are deleted,
        the checkpointed final part is truncated back to its recorded
        line count, and the manifest is rewritten to match — after which
        appending continues exactly where the checkpoint left off.
        """
        path = pathlib.Path(str(state["path"]))
        part_names = [str(name) for name in state["parts"]]
        if not part_names:
            raise CheckpointError(f"{path}: checkpoint lists no log parts")
        directory = path.parent
        stem = path.stem
        parts = [directory / name for name in part_names]
        for part in parts:
            if not part.exists():
                raise CheckpointError(
                    f"{part}: checkpointed log part is missing"
                )
        listed = set(part_names)
        for stray in sorted(
            directory.glob(f"{stem}-[0-9][0-9][0-9][0-9].jsonl")
        ):
            if stray.name not in listed:
                stray.unlink()
        _truncate_to_records(parts[-1], int(state["part_records"]))
        writer = cls.__new__(cls)
        writer.path = path
        writer.max_bytes = int(state["max_bytes"])
        writer._stem = stem
        writer._dir = directory
        writer.manifest_path = directory / f"{stem}.manifest.json"
        writer.parts = parts
        writer.records_written = int(state["records"])
        writer._part_bytes = int(state["part_bytes"])
        writer._part_records = int(state["part_records"])
        writer._file = parts[-1].open("a", encoding="utf-8")
        writer._write_manifest()
        return writer

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
            self._write_manifest()

    def __enter__(self) -> "RotatingJsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _truncate_to_records(path: pathlib.Path, keep: int) -> None:
    """Cut ``path`` back to its first ``keep`` newline-terminated lines.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing or holds fewer complete lines than the checkpoint claims —
    either way it cannot be the log the checkpoint was taken against.
    """
    if not path.exists():
        raise CheckpointError(f"{path}: cannot resume, log file is missing")
    with path.open("r+b") as handle:
        offset = 0
        remaining = keep
        while remaining:
            chunk = handle.read(1 << 20)
            if not chunk:
                raise CheckpointError(
                    f"{path}: log holds fewer than {keep} complete "
                    "records; it does not match the checkpoint"
                )
            newlines = chunk.count(b"\n")
            if newlines >= remaining:
                position = -1
                for _ in range(remaining):
                    position = chunk.find(b"\n", position + 1)
                offset += position + 1
                remaining = 0
            else:
                remaining -= newlines
                offset += len(chunk)
        handle.truncate(offset)


class EventSampler:
    """Deterministic per-transaction event sampling, tail-exact.

    Thins an event stream to roughly ``rate`` of its transactions while
    keeping the records analysis cannot afford to lose:

    * kinds in :data:`KEEP_ALWAYS_KINDS` always pass;
    * a transaction is *sampled* iff
      ``(txn_id * 2654435761) % 2**32 < rate * 2**32`` (Fibonacci
      hashing — deterministic, uniform, seed-free), and every event of a
      sampled transaction passes;
    * **tardy completions of unsampled transactions pass anyway**,
      marked ``"sampled": false`` — so deadline misses and tardiness
      mass survive sampling exactly, only the on-time bulk is thinned
      (the "head/tail bias": heads of the log and tails of the
      distribution are kept);
    * transaction-less ``sched`` points pass every ``round(1/rate)``-th
      occurrence.

    Readers estimate thinned totals as ``count / rate``
    (:mod:`repro.obs.analyze` applies this scale correction when the
    header carries ``"sample"``).
    """

    #: Knuth's multiplicative-hash constant (2^32 / φ).
    _HASH = 2654435761
    _MOD = 2**32

    def __init__(self, rate: float) -> None:
        if not 0.0 < rate <= 1.0:
            raise ObservabilityError(
                f"sample rate must be in (0, 1], got {rate}"
            )
        self.rate = rate
        self._threshold = int(rate * self._MOD)
        self._sched_stride = max(1, round(1.0 / rate))
        self._sched_seen = 0

    def keeps_txn(self, txn_id: int) -> bool:
        """Whether ``txn_id`` is in the sampled subset."""
        return (txn_id * self._HASH) % self._MOD < self._threshold

    def filter(self, record: dict) -> dict | None:
        """The record to persist, or ``None`` to drop it."""
        if self.rate == 1.0:
            return record
        kind = record.get("kind", "")
        if kind in KEEP_ALWAYS_KINDS:
            return record
        txn = record.get("txn")
        if txn is None:
            if kind == "sched":
                self._sched_seen += 1
                if (self._sched_seen - 1) % self._sched_stride == 0:
                    return record
            return None
        if self.keeps_txn(int(txn)):
            return record
        if kind == "completion" and record.get("tardiness", 0.0) > 0.0:
            kept = dict(record)
            kept["sampled"] = False
            return kept
        return None


def write(records: Iterable[dict], path: str | pathlib.Path) -> pathlib.Path:
    """Write ``records`` to ``path``; returns the path written."""
    path = pathlib.Path(path)
    with JsonlWriter(path) as out:
        for record in records:
            out.write(record)
    return path


def iter_records(
    path: str | pathlib.Path, strict: bool = True
) -> Iterator[dict]:
    """Yield records from a ``.jsonl`` event log, validating the header.

    With ``strict=True`` (default) the first record must be a
    ``run_start`` header whose ``schema`` this reader supports.
    """
    path = pathlib.Path(path)
    first = True
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ObservabilityError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            if first and strict:
                _validate_header(record, path)
            first = False
            yield record


def _validate_header(record: dict, path: pathlib.Path) -> None:
    if record.get("kind") != "run_start":
        raise ObservabilityError(
            f"{path}: first record must be a 'run_start' header, "
            f"got kind={record.get('kind')!r}"
        )
    schema = record.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise ObservabilityError(
            f"{path}: header carries invalid schema version {schema!r}"
        )
    if schema > SCHEMA_VERSION:
        raise ObservabilityError(
            f"{path}: event log uses schema {schema}, this reader "
            f"supports <= {SCHEMA_VERSION}"
        )


def read(path: str | pathlib.Path, strict: bool = True) -> list[dict]:
    """Read a whole event log into memory (header included)."""
    return list(iter_records(path, strict=strict))


def _glob_fallback(
    manifest_path: pathlib.Path, reason: object
) -> list[pathlib.Path]:
    """Recover a rotated set's parts by filename when the manifest is torn.

    The writer names parts ``{stem}-NNNN.jsonl`` with zero-padded
    four-digit indices, so a lexicographic sort restores read order.
    Raises :class:`~repro.errors.ObservabilityError` when no part files
    exist either — then there is nothing to recover from.
    """
    stem = manifest_path.name[: -len(".manifest.json")]
    parts = sorted(
        manifest_path.parent.glob(f"{stem}-[0-9][0-9][0-9][0-9].jsonl")
    )
    if not parts:
        raise ObservabilityError(
            f"{manifest_path}: unreadable manifest ({reason}) and no "
            "part files to recover from"
        )
    warnings.warn(
        f"{manifest_path}: unreadable manifest ({reason}); recovered "
        f"{len(parts)} part(s) by filename glob",
        UserWarning,
        stacklevel=4,
    )
    return parts


def _resolve_parts(path: pathlib.Path) -> tuple[list[pathlib.Path], int]:
    """The file(s) making up one logical log, in read order.

    Accepts a plain single-file log, a rotated set's manifest, or a
    rotated set's *base* path (the logical name the writer was given —
    the manifest is looked up next to it).  Returns ``(parts,
    recovered)``: ``recovered`` is 1 when the manifest was torn or
    corrupt and the parts were reconstructed by filename glob
    (:func:`_glob_fallback`), 0 when the manifest was healthy.
    """
    if path.name.endswith(".manifest.json"):
        manifest_path = path
    else:
        manifest_path = path.parent / f"{path.stem}.manifest.json"
        if path.exists() or not manifest_path.exists():
            if not path.exists():
                raise ObservabilityError(f"{path}: no such event log")
            return [path], 0
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(
            f"{manifest_path}: unreadable manifest: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        return _glob_fallback(manifest_path, exc), 1
    if manifest.get("kind") != "manifest" or "parts" not in manifest:
        return _glob_fallback(manifest_path, "not an event-log manifest"), 1
    parts = [manifest_path.parent / name for name in manifest["parts"]]
    if not parts:
        raise ObservabilityError(f"{manifest_path}: manifest lists no parts")
    for part in parts:
        if not part.exists():
            raise ObservabilityError(
                f"{manifest_path}: listed part {part.name} is missing"
            )
    return parts, 0


def _parse_lines(
    path: pathlib.Path, tolerate_tail: bool
) -> tuple[list[dict], int]:
    """Parse one physical file; drop a torn final line if tolerated."""
    raw: list[tuple[int, str]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                raw.append((lineno, line))
    records: list[dict] = []
    truncated = 0
    for index, (lineno, line) in enumerate(raw):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate_tail and index == len(raw) - 1:
                warnings.warn(
                    f"{path}:{lineno}: dropping truncated trailing line "
                    f"({exc})",
                    UserWarning,
                    stacklevel=3,
                )
                truncated = 1
                break
            raise ObservabilityError(
                f"{path}:{lineno}: invalid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{path}:{lineno}: expected a JSON object, got "
                f"{type(record).__name__}"
            )
        records.append(record)
    return records, truncated


def read_tolerant(
    path: str | pathlib.Path, strict: bool = True
) -> tuple[list[dict], int]:
    """Read an event log, tolerating a truncated *final* line.

    The per-event flush of :class:`JsonlWriter` guarantees a crashed run
    loses at most the one line it was mid-write, so only the last
    non-empty line may legally fail to parse: it is dropped with a
    :class:`UserWarning` and counted in the returned
    ``(records, truncated_lines)`` pair.
    An unparseable line anywhere *else* still raises
    :class:`~repro.errors.ObservabilityError` — that is corruption, not
    truncation.

    ``path`` may also be a :class:`RotatingJsonlWriter` base path or
    manifest: the rotated parts are then read in order as one logical
    log (only the *last* part's tail may be torn; the run header lives
    in the first part).  A torn or corrupt *manifest* is tolerated too:
    the parts are recovered by filename glob with a :class:`UserWarning`
    and the recovery is added to the returned counter (so a crash that
    tears both the manifest and the final line reports 2).
    """
    parts, recovered = _resolve_parts(pathlib.Path(path))
    records: list[dict] = []
    truncated = 0
    for index, part in enumerate(parts):
        part_records, truncated = _parse_lines(
            part, tolerate_tail=(index == len(parts) - 1)
        )
        records.extend(part_records)
    if records and strict:
        _validate_header(records[0], parts[0])
    if not records:
        raise ObservabilityError(f"{path}: no parseable records")
    return records, truncated + recovered
