"""Run the simulator benchmark on one workload (or all of them).

Usage, from the root of the repository::

    python3 perfbench/run.py --workload run-asets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` measures the end-to-end metrics from untraced samples;
``--trace 1`` measures the per-layer metrics from traced samples, each
with an untraced baseline so the tracing overhead is known.  Every
sample runs in a fresh interpreter.  The run keeps taking samples until
``--seconds`` are used (at least three untraced samples, or one traced
pair), reports medians, checks every sample's output digest, and prints
one JSON result as the last line of standard output::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Spans of traced samples and a result file with provenance and every
sample land in ``.perfbench/`` at the repository root.
``--record-digest`` runs one untraced sample and stores its digest in
``perfbench/digests.json`` as the committed digest for that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fewest untraced samples a run reports a median over.
MIN_SAMPLES = 3
#: No sample starts after this many seconds, so a run ends well within
#: the three minutes one run may take.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 175.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload's transaction count (tests use tiny scales)",
    )
    parser.add_argument("--record-digest", action="store_true")
    parser.add_argument("--child", choices=("sample", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(
            f"perfbench: unknown workload {unknown[0]!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    if args.child:
        return _child(args)
    if args.record_digest:
        return max(_record_digest(name, args) for name in names)
    results = {}
    for name in names:
        result = _run(name, args)
        if result is None:
            return 3
        results[name] = result
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final), flush=True)
    return 0


# ----------------------------------------------------------------------
# Child side: one sample in a fresh interpreter.
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    from perfbench import workloads

    p = workloads.params(args.workload, args.scale)
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sweep = p["kind"] == "sweep"
    try:
        if args.child == "sample" and sweep:
            out = workloads.sweep_sample(p, args.seed)
        elif args.child == "sample":
            out = workloads.single_sample(p, args.seed, workdir)
        else:
            spans = pathlib.Path(args.spans_out)
            out = (
                workloads.sweep_traced(p, args.seed, spans)
                if sweep
                else workloads.single_traced(p, args.seed, workdir, spans)
            )
        out["ok"] = True
    except workloads.BenchRefused as exc:
        out = {"ok": False, "refused": str(exc)}
    except Exception:  # noqa: BLE001 - a failed run is reported, not fatal
        out = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(out), flush=True)
    return 0


# ----------------------------------------------------------------------
# Parent side: samples, medians, correctness, output.
# ----------------------------------------------------------------------
def _spawn(
    mode: str, name: str, args: argparse.Namespace, workdir: pathlib.Path,
    timeout: float, spans: pathlib.Path | None = None,
) -> dict[str, Any]:
    """Run one sample in a fresh interpreter."""
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--child", mode, "--workload", name, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--workdir", str(workdir),
    ]
    if spans is not None:
        cmd += ["--spans-out", str(spans)]
    # A fixed hash seed keeps object layout, and so host time, the same
    # from one interpreter to the next; simulated outputs never depend on it.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"sample timed out after {timeout:.0f}s",
                "elapsed_s": perf_counter() - t0}
    elapsed = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    out["elapsed_s"] = elapsed
    return out


def _run(name: str, args: argparse.Namespace) -> dict[str, Any] | None:
    from perfbench import digest, workloads

    p = workloads.params(name, args.scale)
    fp = workloads.fingerprint(name, p)
    expected = digest.committed_digest(digest.load_committed(), fp, args.seed)
    workdir = OUT / "work" / f"{name}-seed{args.seed}-{os.getpid()}"
    start = perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (perf_counter() - start)

    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    try:
        while True:
            round_start = perf_counter()
            if args.trace:
                if p["kind"] == "single":
                    untraced.append(_spawn("sample", name, args, workdir, left()))
                spans = OUT / f"spans-{name}-seed{args.seed}-{len(traced)}.json"
                traced.append(_spawn("traced", name, args, workdir, left(), spans))
            else:
                untraced.append(_spawn("sample", name, args, workdir, left()))
            if any(s.get("refused") for s in untraced + traced):
                break
            now = perf_counter() - start
            round_s = perf_counter() - round_start
            enough = bool(traced) or len(untraced) >= MIN_SAMPLES
            if enough and (now + round_s > args.seconds or now > START_LIMIT_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = untraced + traced
    refused = [s["refused"] for s in samples if s.get("refused")]
    if refused:
        print(f"perfbench: refusing to record {name}: {refused[0]}", file=sys.stderr)
        return None
    for s in samples:
        if not s["ok"]:
            print(f"perfbench: {name} sample failed:\n{s['error']}", file=sys.stderr)
    problems = _check(samples, expected)
    for problem in problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)

    per_op = 1 if p["kind"] == "single" else workloads.cells(p)
    attempted = sum(s["attempted"] if s["ok"] else per_op for s in samples)
    failed = sum(s["failed"] if s["ok"] else per_op for s in samples)
    ok_untraced = [s for s in untraced if s["ok"]]
    ok_traced = [s for s in traced if s["ok"]]
    if args.trace:
        metrics, counts = _layer_metrics(ok_traced, ok_untraced, workloads.PER_LAYER)
    else:
        metrics, counts = _medians(
            [s["reference"] for s in ok_untraced], workloads.END_TO_END
        )
        if ok_untraced:
            counts["wall_s (raw)"] = [s["wall_s"] for s in ok_untraced]
    prov = _provenance(name, p, fp, args.seed)
    _report(name, metrics, counts)
    print(f"{name} provenance {json.dumps(prov, sort_keys=True)}")
    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    for k in range(len(traced)):
        spans = OUT / f"spans-{name}-seed{args.seed}-{k}.json"
        if spans.exists():
            data = json.loads(spans.read_text())
            spans.write_text(json.dumps({"provenance": prov, **data}))
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result, "samples": samples}, indent=1)
    )
    return result


def _check(samples: list[dict[str, Any]], expected: str | None) -> list[str]:
    """Correctness problems: digest mismatch, disagreement, invariants."""
    problems = []
    ok = [s for s in samples if s["ok"]]
    digests = sorted({s["digest"] for s in ok})
    if len(digests) > 1:
        problems.append(f"samples disagree on the output digest: {digests}")
    if expected is not None and digests and digests != [expected]:
        problems.append(f"output digest {digests} != committed {expected}")
    problems += sorted({s["invariant"] for s in ok if s["invariant"]})
    return problems


def _medians(
    samples: list[dict[str, Any]], table: tuple[tuple[str, str], ...]
) -> tuple[dict[str, Any], dict[str, list[float]]]:
    if not samples:
        return {}, {}
    values = {name: [s[name] for s in samples] for name, _ in table}
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in table
    }
    return metrics, values


def _layer_metrics(
    traced: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    table: tuple[tuple[str, str], ...],
) -> tuple[dict[str, Any], dict[str, list[float]]]:
    """Per-layer medians plus ``trace.overhead_s``: traced minus untraced wall."""
    if not traced:
        return {}, {}
    values = {
        name: [s["layers"][name] for s in traced]
        for name, _ in table if name != "trace.overhead_s"
    }
    baseline = [s["wall_s"] for s in untraced] or [s["baseline_wall_s"] for s in traced]
    if not baseline:
        return {}, {}
    values["trace.overhead_s"] = [
        statistics.median(s["wall_s"] for s in traced) - statistics.median(baseline)
    ]
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in table
    }
    return metrics, values


def _report(name: str, metrics: dict[str, Any], values: dict[str, list[float]]) -> None:
    """One human-readable line per metric: median, quartiles, sample count."""
    units = {metric: entry["unit"] for metric, entry in metrics.items()}
    for metric, samples in values.items():
        spread = ""
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
        print(
            f"{name:<14} {metric:<32} {statistics.median(samples):>14.6g}"
            f" {units[metric.split()[0]]:<6} median of {len(samples)}{spread}"
        )


def _provenance(name: str, p: dict[str, Any], fp: str, seed: int) -> dict[str, Any]:
    return {
        "workload": name,
        "seed": seed,
        "fingerprint": fp,
        "params": p,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str | None:
    # The ceiling stops git from reporting an enclosing repository's
    # commit when this checkout is not a repository itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _record_digest(name: str, args: argparse.Namespace) -> int:
    from perfbench import digest, workloads

    p = workloads.params(name, args.scale)
    workdir = OUT / "work" / f"record-{name}-{os.getpid()}"
    try:
        sample = _spawn("sample", name, args, workdir, RUN_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not sample["ok"] or sample["invariant"] or sample["failed"]:
        print(f"perfbench: not recording {name}: {sample}", file=sys.stderr)
        return 1
    fp = workloads.fingerprint(name, p)
    digest.record(name, fp, args.seed, sample["digest"])
    print(f"{name} seed {args.seed} fingerprint {fp} digest {sample['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
