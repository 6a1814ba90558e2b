"""The checkpoint file format: header, validation, atomicity, caps."""

import json
import pickle

import pytest

from repro.ckpt import (
    CKPT_MAGIC,
    CKPT_VERSION,
    Checkpointer,
    load_checkpoint,
    restore_writer,
)
from repro.errors import CheckpointError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import generate_workloads, run_policy_on
from repro.workload.spec import WorkloadSpec


@pytest.fixture
def checkpoint_path(tmp_path):
    workload = generate_workloads(
        WorkloadSpec(n_transactions=80, utilization=0.9), [3]
    )[0]
    path = tmp_path / "run.ckpt"
    run_policy_on(
        workload,
        PolicySpec.of("asets"),
        checkpoint_every=30,
        checkpointer=Checkpointer(path, metadata={"target": "test"}),
    )
    return path


class TestFileLayout:
    def test_magic_and_inspectable_header(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        assert data.startswith(CKPT_MAGIC)
        header_line = data[len(CKPT_MAGIC) : data.index(b"\n", len(CKPT_MAGIC))]
        header = json.loads(header_line)
        assert header["version"] == CKPT_VERSION
        assert header["policy"] == "asets"
        assert header["n"] == 80
        assert header["servers"] == 1
        assert header["metadata"] == {"target": "test"}
        assert header["events_processed"] >= 30

    def test_load_round_trips_header(self, checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        assert checkpoint.policy_name == "asets"
        assert checkpoint.n == 80
        assert checkpoint.metadata == {"target": "test"}
        assert checkpoint.writer_state is None

    def test_save_leaves_no_temp_file(self, checkpoint_path):
        assert not checkpoint_path.with_name(
            checkpoint_path.name + ".tmp"
        ).exists()


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "alien.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(CKPT_MAGIC + b'{"version": 1')
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CKPT_MAGIC + b"{nope}\n" + b"rest")
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_header_field_skew(self, tmp_path):
        path = tmp_path / "skew.ckpt"
        path.write_bytes(CKPT_MAGIC + b'{"version": 1}\n' + b"rest")
        with pytest.raises(CheckpointError, match="header fields"):
            load_checkpoint(path)

    def test_unsupported_version(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = CKPT_VERSION + 1
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(checkpoint_path)

    def test_version_1_refused(self, checkpoint_path):
        # Version 1 pickled (sort_key, event) heap entries; a reader of
        # the tuple-event format must refuse it before unpickling.
        assert CKPT_VERSION == 2
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = 1
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(
            CheckpointError, match="checkpoint version 1, this reader supports 2"
        ):
            load_checkpoint(checkpoint_path)

    def test_torn_payload(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        checkpoint_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(checkpoint_path)

    def test_blob_field_skew(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        checkpoint_path.write_bytes(
            data[: end + 1] + pickle.dumps({"core": {}})
        )
        with pytest.raises(CheckpointError, match="payload fields"):
            load_checkpoint(checkpoint_path)

    def test_core_schema_skew(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        blob = pickle.loads(data[end + 1 :])
        blob["core"].pop("_events")
        checkpoint_path.write_bytes(data[: end + 1] + pickle.dumps(blob))
        with pytest.raises(CheckpointError, match="version skew"):
            load_checkpoint(checkpoint_path)


class TestCheckpointer:
    def test_max_saves_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="max_saves"):
            Checkpointer(tmp_path / "x.ckpt", max_saves=0)

    def test_max_saves_caps_snapshots(self, tmp_path):
        workload = generate_workloads(
            WorkloadSpec(n_transactions=120, utilization=0.9), [3]
        )[0]
        capped = Checkpointer(tmp_path / "run.ckpt", max_saves=1)
        run_policy_on(
            workload,
            PolicySpec.of("edf"),
            checkpoint_every=20,
            checkpointer=capped,
        )
        assert capped.saves == 1
        # An uncapped run takes several snapshots at the same cadence.
        free = Checkpointer(tmp_path / "free.ckpt")
        run_policy_on(
            workload,
            PolicySpec.of("edf"),
            checkpoint_every=20,
            checkpointer=free,
        )
        assert free.saves > 1


class TestRestoreWriter:
    def test_none_passes_through(self):
        assert restore_writer(None) is None

    def test_unknown_writer_tag(self):
        with pytest.raises(CheckpointError, match="unknown checkpointed"):
            restore_writer({"writer": "mystery"})
