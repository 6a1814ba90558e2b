"""The benchmark workloads and the pipelines that time them.

Each sample runs in a fresh interpreter (see ``run.py``), so the peak RSS
it reports belongs to that workload alone.  A pipeline calls the
simulator's public entry points (``generate``, the experiment runner,
``grid_sweep``) and times them from the outside; the traced variants
additionally patch the layer calls underneath with a
:class:`~perfbench.spans.Tracer`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import statistics
import threading
from contextlib import nullcontext
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import repro.experiments.parallel as parallel_module
from repro.ckpt import Checkpointer
from repro.core.workflow_set import WorkflowSet
from repro.experiments import runner
from repro.experiments.config import TRANSACTION_LEVEL_POLICIES, PolicySpec
from repro.experiments.parallel import CellFailure, SweepColumn, grid_sweep
from repro.faults import FaultSpec
from repro.obs.jsonl import JsonlWriter
from repro.obs.profile import ENGINE_PHASES, PhaseProfiler, ProfileSnapshot
from repro.obs.streaming import StreamingRecorder
from repro.sim.engine import Simulator
from repro.workload import WorkloadSpec, generate

from perfbench import calibrate, digest
from perfbench.spans import Patches, Tracer, children_peak_rss_mb, peak_rss_mb

#: Workload parameters.  ``n`` is scaled by ``--scale``; everything else
#: is fixed.  The fingerprint of these dicts keys the committed digests.
WORKLOADS: dict[str, dict[str, Any]] = {
    "run-asets": {
        "kind": "single",
        "n": 30_000,
        "spec": {"utilization": 0.9, "weighted": True, "with_workflows": True},
        "policy": "asets-star",
    },
    "stream-faults": {
        "kind": "single",
        "n": 8_000,
        "spec": {
            "utilization": 0.9,
            "weighted": True,
            "with_workflows": True,
            "length_estimate_error": 0.5,
        },
        "policy": "asets-star",
        "streaming": True,
        "faults": {
            "seed": 7,
            "abort_prob": 0.1,
            "max_retries": 3,
            "crash_count": 20,
            "crash_min_duration": 200.0,
            "crash_max_duration": 1000.0,
            "stall_prob": 0.1,
            "stall_max": 2.0,
            "backlog_limit": 25,
        },
        # Events between checkpoints, as a multiple of n: about four
        # snapshots per run.
        "checkpoint_every_per_txn": 1.0,
    },
    "sweep-util": {
        "kind": "sweep",
        "n": 1000,
        "utilizations": [0.2, 0.4, 0.6, 0.8, 1.0],
        "seeds": 6,
        "policies": [spec.name for spec in TRANSACTION_LEVEL_POLICIES],
        "metric": "average_tardiness",
        "jobs": 2,
    },
}

#: Set-up passes per sweep sample; the sample reports their median.
SWEEP_SETUP_REPEATS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_txn_per_s", "txn/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("workload.generate_s", "s"),
    ("workload.gc_s", "s"),
    ("workload.gc_collections", "count"),
    ("workload.rss_mb", "MB"),
    ("workflow_set.build_s", "s"),
    ("workflow_set.workflows", "count"),
    ("workflow_set.members", "count"),
    ("faults.plan_s", "s"),
    ("faults.retries", "count"),
    ("faults.aborted", "count"),
    ("faults.shed", "count"),
    ("faults.attempts_per_completion", "1"),
    ("sim.construct_s", "s"),
    ("sim.run_s", "s"),
    ("sim.gc_s", "s"),
    ("sim.rss_mb", "MB"),
    ("sim.sched_points", "count"),
    ("sim.preemptions", "count"),
    ("sim.us_per_sched_point", "us"),
    *((f"sim.phase.{phase}_s", "s") for phase in ENGINE_PHASES),
    ("policy.bind_s", "s"),
    ("policy.select_calls", "count"),
    ("policy.select_total_s", "s"),
    ("policy.select_p50_us", "us"),
    ("policy.select_p99_us", "us"),
    ("result.summary_s", "s"),
    ("result.records", "count"),
    ("obs.sink_writes", "count"),
    ("obs.sink_bytes", "bytes"),
    ("obs.sink_write_s", "s"),
    ("obs.report_s", "s"),
    ("ckpt.saves", "count"),
    ("ckpt.save_s", "s"),
    ("ckpt.save_p50_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("sweep.jobs", "count"),
    ("sweep.cells", "count"),
    ("sweep.cell_failures", "count"),
    ("sweep.seq_wall_s", "s"),
    ("sweep.parallel_efficiency", "1"),
    ("sweep.pool_overhead_s", "s"),
    ("sweep.first_result_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchRefused(Exception):
    """The sample ran under conditions the benchmark must not record."""


def params(name: str, scale: float = 1.0) -> dict[str, Any]:
    """The workload's parameters with ``n`` scaled (at least 20)."""
    p = json.loads(json.dumps(WORKLOADS[name]))
    p["n"] = max(20, round(p["n"] * scale))
    return p


def fingerprint(name: str, p: dict[str, Any]) -> str:
    payload = json.dumps({"workload": name, **p}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _spec(p: dict[str, Any], **overrides: Any) -> WorkloadSpec:
    return WorkloadSpec(n_transactions=p["n"], **{**p.get("spec", {}), **overrides})


# ----------------------------------------------------------------------
# Single-run workloads.
# ----------------------------------------------------------------------
class RunClock(Patches):
    """Start and end of every ``Simulator.run`` call while the block runs.

    A class-level patch, one ``perf_counter`` pair per run.  With
    ``counts``, each result's outcome counts are kept as well (outside
    the timed pair), for runs whose caller never sees the result.
    """

    def __init__(self, counts: bool = False) -> None:
        super().__init__()
        self.runs: list[tuple[float, float]] = []
        self.counts: list[dict[str, float]] | None = [] if counts else None

    def __enter__(self) -> "RunClock":
        self.wrap(Simulator, "run", self._clocked)
        return self

    def _clocked(self, run: Callable[[Simulator], Any]) -> Callable[[Simulator], Any]:
        runs = self.runs
        counts = self.counts

        def clocked(simulator: Simulator) -> Any:
            start = perf_counter()
            result = run(simulator)
            runs.append((start, perf_counter()))
            if counts is not None:
                counts.append(_counts(result))
            return result

        return clocked


def _counts(result: Any) -> dict[str, float]:
    """The outcome counts of ``result.summary()``, without its averages."""
    return {
        "n": result.n,
        "scheduling_points": result.scheduling_points,
        "total_preemptions": result.total_preemptions,
        "completed": result.completed_count,
        "retries": result.total_retries,
        "aborted": result.aborted_count,
        "shed": result.shed_count,
    }


@dataclasses.dataclass
class SingleRun:
    """Handles and host timings of one generate → run → result → emit."""

    workload: Any
    result: Any
    summary: dict[str, float]
    recorder: StreamingRecorder | None
    sink: JsonlWriter | None
    checkpoint: pathlib.Path | None
    setup_s: float
    run_s: float
    wall_s: float


def _faults(p: dict[str, Any]) -> FaultSpec | None:
    return FaultSpec(**p["faults"]) if "faults" in p else None


def run_single(
    p: dict[str, Any], seed: int, workdir: pathlib.Path, tracer: Tracer | None = None
) -> SingleRun:
    """One single-run sample through the experiment runner.

    ``run_policy_on`` makes the buffered run and ``run_policy_streaming``
    the streaming one.  Set-up is everything from ``generate()`` until
    ``Simulator.run`` is entered; a :class:`RunClock` marks that point.
    """
    span: Callable[[str], Any] = tracer.span if tracer is not None else _no_span
    policy = PolicySpec.of(p["policy"])
    streaming = p.get("streaming", False)
    if tracer is not None:
        _trace_engine(tracer, [policy])
        tracer.wrap_span(runner, "plan_faults", "faults.plan")
        if streaming:
            tracer.wrap_calls(JsonlWriter, "write", "obs.sink_write")
            tracer.wrap_span(Checkpointer, "save", "ckpt.save")
    recorder = sink = checkpoint = None
    with RunClock() as clock:
        t0 = perf_counter()
        with span("workload.generate"):
            workload = generate(_spec(p), seed)
        if streaming:
            sink = JsonlWriter(workdir / "events.jsonl")
            checkpoint = workdir / "run.ckpt"
            result, recorder = runner.run_policy_streaming(
                workload,
                policy,
                sink=sink,
                faults=_faults(p),
                checkpoint_every=max(1, round(p["n"] * p["checkpoint_every_per_txn"])),
                checkpoint_out=str(checkpoint),
            )
        else:
            result = runner.run_policy_on(workload, policy, faults=_faults(p))
        with span("result.summary"):
            summary = result.summary()
        with span("obs.emit"):
            emitted: dict[str, Any] = {"summary": summary}
            if recorder is not None:
                with span("obs.report"):
                    emitted["report"] = recorder.report().as_dict()
            if sink is not None:
                sink.close()
            (workdir / "result.json").write_text(json.dumps(emitted))
        wall_s = perf_counter() - t0
    ((run_start, run_end),) = clock.runs
    return SingleRun(
        workload, result, summary, recorder, sink, checkpoint,
        run_start - t0, run_end - run_start, wall_s,
    )


def single_digest(run: SingleRun) -> str:
    telemetry = (
        digest.telemetry_quantiles(run.recorder.telemetry)
        if run.recorder is not None
        else None
    )
    log = run.sink.path if run.sink is not None else None
    return digest.single_digest(run.summary, telemetry, log)


def _reference(values: dict[str, float], speed: float) -> dict[str, float]:
    """``values`` in reference seconds (rates per reference second)."""
    return {
        name: value / speed if name.endswith("_per_s") else value * speed
        for name, value in values.items()
    }


def single_sample(p: dict[str, Any], seed: int, workdir: pathlib.Path) -> dict[str, Any]:
    """Untraced sample: end-to-end metrics, digest and invariant.

    The speed kernel brackets the run.  The peak-RSS reading is taken,
    and the run's objects are released, before the second kernel, so
    the kernel never runs beside the simulator's heap.
    """
    before = calibrate.kernel_seconds()
    run = run_single(p, seed, workdir)
    peak = peak_rss_mb()
    times = {
        "wall_s": run.wall_s,
        "setup_s": run.setup_s,
        "sim_txn_per_s": p["n"] / run.run_s,
    }
    checks = {
        "digest": single_digest(run),
        "invariant": digest.single_invariant(run.summary),
    }
    del run
    after = calibrate.kernel_seconds()
    return {
        **times,
        "peak_rss_mb": peak,
        "kernel_s": [before, after],
        "reference": {
            **_reference(times, calibrate.speed(before, after)),
            "peak_rss_mb": peak,
        },
        "attempted": 1,
        "failed": 0,
        **checks,
    }


def single_traced(
    p: dict[str, Any], seed: int, workdir: pathlib.Path, spans_out: pathlib.Path
) -> dict[str, Any]:
    """Traced sample: per-layer metrics, then a profiled pass for phases."""
    with Tracer() as tracer:
        run = run_single(p, seed, workdir, tracer)
        sample_digest = single_digest(run)
        workflows = run.workload.workflow_set
        members = 0
        if workflows is not None:
            # Timed rebuild over the same pool (generate() builds the set
            # inside its own call, out of reach of a span).
            with tracer.span("workflow_set.build"):
                WorkflowSet(run.workload.transactions)
            members = sum(len(wf.member_ids) for wf in workflows)
    summary = run.summary
    layers = _zero_layers()
    layers.update(_workload_layers(tracer))
    layers.update(_sim_layers(tracer, [summary]))
    layers.update({
        "workflow_set.build_s": tracer.total("workflow_set.build"),
        "workflow_set.workflows": len(workflows) if workflows is not None else 0,
        "workflow_set.members": members,
        "faults.plan_s": tracer.total("faults.plan"),
        "result.records": len(run.result.records),
        "obs.report_s": tracer.total("obs.report"),
    })
    if run.sink is not None:
        writes = tracer.call_stats("obs.sink_write")
        layers.update({
            "obs.sink_writes": run.sink.records_written,
            "obs.sink_bytes": run.sink.path.stat().st_size,
            "obs.sink_write_s": writes["total_s"],
        })
    if run.checkpoint is not None:
        saves = sorted(span.duration for span in tracer.named("ckpt.save"))
        layers.update({
            "ckpt.saves": len(saves),
            "ckpt.save_s": sum(saves),
            "ckpt.save_p50_s": statistics.median(saves) if saves else 0.0,
            "ckpt.bytes": run.checkpoint.stat().st_size
            if run.checkpoint.exists() else 0,
        })
    profile, profiled_summary = _profiled_pass(p, run, workdir)
    layers.update(_phase_layers(profile))
    invariant = digest.single_invariant(summary)
    if invariant is None and profiled_summary != summary:
        invariant = "profiled run summary differs from the traced run"
    _write_spans(spans_out, tracer)
    return {
        "wall_s": run.wall_s,
        "attempted": 1,
        "failed": 0,
        "digest": sample_digest,
        "invariant": invariant,
        "layers": layers,
    }


def _profiled_pass(
    p: dict[str, Any], run: SingleRun, workdir: pathlib.Path
) -> tuple[ProfileSnapshot, dict[str, float]]:
    """Replay the same workload under a PhaseProfiler via ``run_policy_on``.

    The profiler cannot be combined with a checkpointer, so this pass
    takes none; a streaming workload keeps its recorder and sink.
    """
    recorder = sink = None
    if p.get("streaming", False):
        sink = JsonlWriter(workdir / "profiled.jsonl")
        recorder = StreamingRecorder(sink=sink)
    profiler = PhaseProfiler()
    result = runner.run_policy_on(
        run.workload,
        PolicySpec.of(p["policy"]),
        instrument=recorder,
        faults=_faults(p),
        profiler=profiler,
    )
    if sink is not None:
        sink.close()
    return profiler.snapshot(p["policy"]), result.summary()


# ----------------------------------------------------------------------
# The sweep workload.
# ----------------------------------------------------------------------
def sweep_seeds(p: dict[str, Any], seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(p["seeds"])]


def _columns(p: dict[str, Any]) -> list[SweepColumn]:
    return [SweepColumn(x=u, spec=_spec(p, utilization=u)) for u in p["utilizations"]]


def _policies(p: dict[str, Any]) -> list[PolicySpec]:
    by_name = {spec.name: spec for spec in TRANSACTION_LEVEL_POLICIES}
    return [by_name[name] for name in p["policies"]]


def _rows(series: Any) -> dict[str, Any]:
    return {"x": list(series.x), "series": {k: list(v) for k, v in series.series.items()}}


def cells(p: dict[str, Any]) -> int:
    return len(p["utilizations"]) * p["seeds"] * len(p["policies"])


class WorkerWatch:
    """Counts the distinct pool workers this process forks while active.

    Polls ``/proc/self/task/*/children`` from a thread.  A worker is a
    child whose command line equals this process's (a fork); helper
    processes that exec something else are not counted.
    """

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        self.workers: set[int] = set()
        self._others: set[int] = set()
        self._cmdline = pathlib.Path("/proc/self/cmdline").read_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "WorkerWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _poll(self) -> None:
        while not self._stop.is_set():
            self._scan()
            self._stop.wait(self.interval)

    def _scan(self) -> None:
        for task in os.listdir("/proc/self/task"):
            try:
                text = pathlib.Path(f"/proc/self/task/{task}/children").read_text()
            except OSError:
                continue
            for pid in map(int, text.split()):
                if pid in self.workers or pid in self._others:
                    continue
                try:
                    cmdline = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
                except OSError:
                    continue
                (self.workers if cmdline == self._cmdline else self._others).add(pid)


def run_sweep(p: dict[str, Any], seed: int, jobs: int, **extra: Any) -> dict[str, Any]:
    """One ``grid_sweep`` call: wall, time to first result, rows, failures.

    With ``jobs`` > 1 a :class:`WorkerWatch` counts the pool's workers;
    at ``jobs=1`` the grid runs in this process and nothing polls.
    """
    failures: list[CellFailure] = []
    first: list[float] = []

    def progress(line: str) -> None:
        if not first:
            first.append(perf_counter())

    watch = WorkerWatch() if jobs > 1 else None
    with watch if watch is not None else nullcontext():
        t0 = perf_counter()
        series = grid_sweep(
            _columns(p),
            _policies(p),
            p["metric"],
            sweep_seeds(p, seed),
            x_label="utilization",
            jobs=jobs,
            progress=progress,
            failures=failures,
            **extra,
        )
        wall_s = perf_counter() - t0
    return {
        "wall_s": wall_s,
        "first_result_s": first[0] - t0,
        "rows": _rows(series),
        "failures": len(failures),
        "workers": len(watch.workers) if watch is not None else 1,
    }


def _pooled_sweep(p: dict[str, Any], seed: int) -> dict[str, Any]:
    """The sweep at ``jobs`` workers; refused if fewer workers ran it."""
    sweep = run_sweep(p, seed, p["jobs"])
    if sweep["workers"] < p["jobs"]:
        raise BenchRefused(
            f"sweep ran on {sweep['workers']} worker(s), expected {p['jobs']}"
        )
    return sweep


def sweep_setup_s(p: dict[str, Any], seed: int) -> float:
    """The grid's per-cell set-up, timed through ``grid_sweep`` itself.

    The grid runs in this process (``jobs=1``) with ``Simulator.run``
    stubbed out: every ``generate()``, workload reset, policy
    construction and ``Simulator(...)`` of the sweep runs, and no
    simulation does.
    """
    stub = SimpleNamespace(**{p["metric"]: 0.0})
    with Patches() as patches:
        patches.wrap(Simulator, "run", lambda run: lambda simulator: stub)
        return run_sweep(p, seed, 1)["wall_s"]


def sweep_sample(p: dict[str, Any], seed: int) -> dict[str, Any]:
    """Untraced sample of the sweep at ``jobs`` workers.

    Speed kernels bracket the pooled sweep and the set-up passes, each
    part timed between the two kernels around it.  Peak RSS is read once
    the pool's workers are reaped, before the set-up passes, and covers
    the workers as well as this process.
    """
    k0 = calibrate.kernel_seconds()
    sweep = _pooled_sweep(p, seed)
    peak = max(peak_rss_mb(), children_peak_rss_mb())
    k1 = calibrate.kernel_seconds()
    setup_s = statistics.median(
        sweep_setup_s(p, seed) for _ in range(SWEEP_SETUP_REPEATS)
    )
    k2 = calibrate.kernel_seconds()
    pooled = {
        "wall_s": sweep["wall_s"],
        "sim_txn_per_s": cells(p) * p["n"] / sweep["wall_s"],
    }
    return {
        **pooled,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "kernel_s": [k0, k1, k2],
        "reference": {
            **_reference(pooled, calibrate.speed(k0, k1)),
            **_reference({"setup_s": setup_s}, calibrate.speed(k1, k2)),
            "peak_rss_mb": peak,
        },
        "attempted": cells(p),
        "failed": sweep["failures"],
        "digest": digest.sweep_digest(sweep["rows"]),
        "invariant": digest.sweep_invariant(sweep["rows"]),
    }


def sweep_traced(p: dict[str, Any], seed: int, spans_out: pathlib.Path) -> dict[str, Any]:
    """Traced sample of the sweep.

    Runs the grid at ``jobs`` workers and at one, both untraced; then at
    one again with the layer calls of the pool worker traced (the grid
    runs in this process at ``jobs=1``); and finally at ``jobs`` workers
    with the PhaseProfiler for phases.
    """
    jobs = p["jobs"]
    parallel = _pooled_sweep(p, seed)
    sequential = run_sweep(p, seed, 1)
    with Tracer() as tracer:
        _trace_engine(tracer, _policies(p))
        tracer.wrap_span(parallel_module, "generate", "workload.generate")
        with RunClock(counts=True) as clock:
            traced = run_sweep(p, seed, 1)
    profiles: dict[str, ProfileSnapshot] = {}
    run_sweep(p, seed, jobs, profile=True, profile_out=profiles)
    merged = ProfileSnapshot()
    for name in sorted(profiles):
        merged.merge(profiles[name])

    invariant = digest.sweep_invariant(parallel["rows"])
    if invariant is None and parallel["rows"] != sequential["rows"]:
        invariant = f"jobs={jobs} rows differ from jobs=1 rows"
    if invariant is None and traced["rows"] != sequential["rows"]:
        invariant = "traced jobs=1 rows differ from untraced jobs=1 rows"

    counts = clock.counts or []
    seq_wall = sequential["wall_s"]
    par_wall = parallel["wall_s"]
    layers = _zero_layers()
    layers.update(_workload_layers(tracer))
    layers.update(_sim_layers(tracer, counts))
    layers.update({
        "result.records": sum(c["n"] for c in counts),
        "sweep.jobs": parallel["workers"],
        "sweep.cells": cells(p),
        "sweep.cell_failures": parallel["failures"],
        "sweep.seq_wall_s": seq_wall,
        "sweep.parallel_efficiency": seq_wall / (jobs * par_wall),
        "sweep.pool_overhead_s": par_wall - seq_wall / jobs,
        "sweep.first_result_s": parallel["first_result_s"],
    })
    layers.update(_phase_layers(merged))
    _write_spans(spans_out, tracer)
    return {
        "wall_s": traced["wall_s"],
        "baseline_wall_s": seq_wall,
        "attempted": cells(p),
        "failed": parallel["failures"],
        "digest": digest.sweep_digest(parallel["rows"]),
        "invariant": invariant,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Per-layer metric assembly.
# ----------------------------------------------------------------------
def _no_span(name: str) -> Any:
    return nullcontext()


def _trace_engine(tracer: Tracer, policies: list[PolicySpec]) -> None:
    """Spans on ``Simulator(...)``, ``.run()`` and each policy's ``bind``;
    call timers on each policy's ``select``."""
    tracer.wrap_span(Simulator, "__init__", "sim.construct")
    tracer.wrap_span(Simulator, "run", "sim.run")
    for spec in policies:
        cls = type(spec.make())
        tracer.wrap_span(cls, "bind", "policy.bind")
        tracer.wrap_calls(cls, "select", "policy.select")


def _zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: a layer the workload never calls."""
    return {name: 0 for name, _ in PER_LAYER}


def _workload_layers(tracer: Tracer) -> dict[str, float]:
    gc_s, collections = tracer.gc_within("workload.generate")
    return {
        "workload.generate_s": tracer.total("workload.generate"),
        "workload.gc_s": gc_s,
        "workload.gc_collections": collections,
        "workload.rss_mb": max(s.rss_end_mb for s in tracer.named("workload.generate")),
    }


def _sim_layers(tracer: Tracer, summaries: list[dict[str, float]]) -> dict[str, float]:
    run_s = tracer.total("sim.run")
    points = sum(s["scheduling_points"] for s in summaries)
    gc_s, _ = tracer.gc_within("sim.run")
    completed = sum(s["completed"] for s in summaries)
    retries = sum(s["retries"] for s in summaries)
    aborted = sum(s["aborted"] for s in summaries)
    select = tracer.call_stats("policy.select")
    return {
        "faults.retries": retries,
        "faults.aborted": aborted,
        "faults.shed": sum(s["shed"] for s in summaries),
        "faults.attempts_per_completion": (completed + retries + aborted) / completed,
        "sim.construct_s": tracer.total("sim.construct"),
        "sim.run_s": run_s,
        "sim.gc_s": gc_s,
        "sim.rss_mb": max(s.rss_end_mb for s in tracer.named("sim.run")),
        "sim.sched_points": points,
        "sim.preemptions": sum(s["total_preemptions"] for s in summaries),
        "sim.us_per_sched_point": run_s / points * 1e6,
        "policy.bind_s": tracer.total("policy.bind"),
        "policy.select_calls": select["calls"],
        "policy.select_total_s": select["total_s"],
        "policy.select_p50_us": select["p50_s"] * 1e6,
        "policy.select_p99_us": select["p99_s"] * 1e6,
        "result.summary_s": tracer.total("result.summary"),
    }


def _phase_layers(profile: ProfileSnapshot) -> dict[str, float]:
    return {
        f"sim.phase.{phase}_s": (
            profile.phases[phase].total_s if phase in profile.phases else 0.0
        )
        for phase in ENGINE_PHASES
    }


def _write_spans(path: pathlib.Path, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.as_dict()))
