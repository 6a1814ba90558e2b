"""Output-correctness digests and invariants for the benchmark workloads.

A host-time change must leave every simulated statistic identical, so
each sample hashes what the simulator produced:

* ``result.summary()``;
* the streaming telemetry quantiles (streaming runs);
* the JSONL event log with the wall-clock ``select_s`` field dropped,
  exactly as the golden-log tests treat it (streaming runs);
* the sweep rows (sweeps).

The digests committed in ``digests.json`` are keyed by the workload's
parameter fingerprint and the seed.  A seed with no committed digest is
checked by invariants instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import re
from typing import Any, Mapping

DIGESTS_PATH = pathlib.Path(__file__).resolve().parent / "digests.json"

#: Telemetry quantiles folded into a streaming run's digest.
TELEMETRY_QUANTILES = (0.5, 0.9, 0.99, 0.999)

# ``json.dumps(..., separators=(",", ":"))`` writes ``select_s`` as a
# plain number after another key; a number holds no ``,`` or ``}``.
_SELECT_S = re.compile(rb',"select_s":[^,}]*')


def canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def log_digest(path: pathlib.Path) -> str:
    """sha256 of a JSONL log with every ``select_s`` field removed."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for line in handle:
            digest.update(_SELECT_S.sub(b"", line))
    return digest.hexdigest()


def telemetry_quantiles(telemetry: Any) -> dict[str, Any]:
    return {
        "tardiness": [telemetry.tardiness.quantile(q) for q in TELEMETRY_QUANTILES],
        "response": [telemetry.response.quantile(q) for q in TELEMETRY_QUANTILES],
        "completed": telemetry.completed,
        "tardy": telemetry.tardy,
    }


def single_digest(
    summary: Mapping[str, float],
    telemetry: Mapping[str, Any] | None,
    log: pathlib.Path | None,
) -> str:
    parts = {
        "summary": dict(summary),
        "telemetry": telemetry,
        "log": log_digest(log) if log is not None else None,
    }
    return hashlib.sha256(canonical(parts)).hexdigest()


def sweep_digest(rows: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical(rows)).hexdigest()


def single_invariant(summary: Mapping[str, float]) -> str | None:
    """``None`` when completed + aborted + shed = n, else the mismatch."""
    finished = summary["completed"] + summary["aborted"] + summary["shed"]
    if finished != summary["n"]:
        return f"completed + aborted + shed = {finished:g} != n = {summary['n']:g}"
    return None


def sweep_invariant(rows: Mapping[str, Any]) -> str | None:
    """``None`` when every cell average is a finite, non-negative number."""
    for policy, values in rows["series"].items():
        for x, value in zip(rows["x"], values):
            if not (math.isfinite(value) and value >= 0.0):
                return f"{policy} at x={x:g} is {value!r}"
    return None


def load_committed(path: pathlib.Path = DIGESTS_PATH) -> dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def committed_digest(
    committed: Mapping[str, Any], fingerprint: str, seed: int
) -> str | None:
    entry = committed.get(fingerprint)
    if entry is None:
        return None
    return entry["seeds"].get(str(seed))


def record(
    workload: str,
    fingerprint: str,
    seed: int,
    digest: str,
    path: pathlib.Path = DIGESTS_PATH,
) -> None:
    """Store ``digest`` as the committed digest of ``(fingerprint, seed)``."""
    committed = load_committed(path)
    entry = committed.setdefault(fingerprint, {"workload": workload, "seeds": {}})
    entry["seeds"][str(seed)] = digest
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
