"""Tests of the benchmark itself, at tiny transaction counts.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import digest, run, spans, workloads
from repro.experiments.config import PolicySpec
from repro.policies import FCFS
from repro.sim.engine import Simulator

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.002  # run-asets: 100 transactions; the others hit the floor of 20-40


def _bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(name: str, trace: str) -> None:
    proc = _bench(
        "--workload", name, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--scale", str(TINY),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {
        metric: (entry["unit"], isinstance(entry["value"], (int, float)))
        for metric, entry in result["metrics"].items()
    } == {m["name"]: (m["unit"], True) for m in table}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_matches_the_code() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        workloads.PER_LAYER
    )


def test_a_swapped_policy_trips_the_digest_check(
    tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    p = workloads.params("run-asets", TINY)
    honest = {**workloads.single_sample(p, 5, tmp_path), "ok": True}
    assert run._check([honest], honest["digest"]) == []

    real_of = PolicySpec.of
    monkeypatch.setattr(
        workloads.PolicySpec, "of", staticmethod(lambda name, *a, **k: real_of("edf"))
    )
    swapped = {**workloads.single_sample(p, 5, tmp_path), "ok": True}
    assert swapped["invariant"] is None  # still a well-formed run ...
    problems = run._check([swapped], honest["digest"])
    assert problems and "!= committed" in problems[0]  # ... but not the same one
    assert run._check([honest, swapped], None)  # samples disagree


@pytest.mark.parametrize("name", ["run-asets", "stream-faults"])
def test_tracing_leaves_the_single_run_digest_unchanged(
    name: str, tmp_path: pathlib.Path
) -> None:
    p = workloads.params(name, TINY)
    plain = workloads.single_sample(p, 2, tmp_path)
    traced = workloads.single_traced(p, 2, tmp_path, tmp_path / "spans.json")
    assert traced["digest"] == plain["digest"]
    assert traced["invariant"] is None
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    run_span = next(span for span in spans if span["name"] == "sim.run")
    bind = next(span for span in spans if span["name"] == "policy.bind")
    assert by_id[bind["parent"]] is run_span
    assert all(span["start"] <= span["end"] for span in spans)


def test_tracing_leaves_the_sweep_digest_unchanged(tmp_path: pathlib.Path) -> None:
    p = workloads.params("sweep-util", TINY)
    plain = workloads.sweep_sample(p, 2)
    traced = workloads.sweep_traced(p, 2, tmp_path / "spans.json")
    assert traced["digest"] == plain["digest"]
    assert traced["invariant"] is None  # jobs=2 rows == jobs=1 rows == traced rows
    layers = traced["layers"]
    assert layers["sweep.jobs"] == 2
    assert layers["result.records"] == workloads.cells(p) * p["n"]
    assert layers["result.summary_s"] == 0  # the sweep never calls summary()
    assert layers["policy.select_calls"] > 0
    names = [span["name"] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]]
    groups = len(p["utilizations"]) * p["seeds"]
    assert names.count("workload.generate") == groups
    assert names.count("sim.run") == names.count("policy.bind") == workloads.cells(p)


def test_sweep_setup_pass_runs_no_simulation_and_restores_the_engine() -> None:
    p = workloads.params("sweep-util", TINY)
    run_method = Simulator.run
    with workloads.RunClock() as clock:
        assert workloads.sweep_setup_s(p, 1) > 0
    assert clock.runs == []  # the stub replaced every run
    assert Simulator.run is run_method
    assert "run" in vars(Simulator)


def test_patches_restore_classes_and_modules() -> None:
    from repro.experiments import parallel

    generate_before = parallel.generate
    with spans.Patches() as patches:
        patches.wrap(parallel, "generate", lambda inner: "patched")
        patches.wrap(FCFS, "bind", lambda inner: "patched")  # inherited
        assert parallel.generate == FCFS.bind == "patched"
    assert parallel.generate is generate_before
    assert "bind" not in vars(FCFS)


def test_log_digest_drops_select_s_as_the_golden_log_tests_do(
    tmp_path: pathlib.Path,
) -> None:
    p = workloads.params("stream-faults", 0.01)
    log = workloads.run_single(p, 1, tmp_path).sink.path
    lines = log.read_text().splitlines()
    assert any('"select_s"' in line for line in lines)
    stripped = tmp_path / "stripped.jsonl"
    with stripped.open("w") as out:
        for line in lines:
            event = json.loads(line)
            event.pop("select_s", None)
            out.write(json.dumps(event, separators=(",", ":")) + "\n")
    assert '"select_s"' not in stripped.read_text()
    assert digest.log_digest(log) == digest.log_digest(stripped)


def test_without_the_simulator_sources_the_run_fails_without_a_result(
    tmp_path: pathlib.Path,
) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench("--workload", "run-asets", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
