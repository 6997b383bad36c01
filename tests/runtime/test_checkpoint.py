"""The checkpoint store: WAL semantics, snapshot validation, staleness."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import CheckpointError
from repro.runtime.checkpoint import CheckpointStore, config_hash

CONFIG = {"buyers": 4, "sellers": 2, "seed": 7}


class InFlight:
    """A message class a later build deletes (see ``test_missing_class``)."""

    def __eq__(self, other):
        return isinstance(other, InFlight)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore.create(
        tmp_path / "run", kind="chaos", seed=7, config=CONFIG
    )


class TestManifest:
    def test_create_then_open_roundtrip(self, store):
        reopened = CheckpointStore.open(store.run_dir)
        assert reopened.kind == "chaos"
        assert reopened.seed == 7
        assert reopened.config == CONFIG
        assert reopened.config_hash == config_hash(CONFIG)

    def test_open_refuses_non_run_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="not a durable run"):
            CheckpointStore.open(tmp_path)

    def test_open_refuses_edited_manifest(self, store):
        manifest = json.loads(store.manifest_path.read_text())
        manifest["config"]["buyers"] = 99  # tamper without re-hashing
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="config hash"):
            CheckpointStore.open(store.run_dir)

    def test_create_refuses_foreign_directory(self, store):
        with pytest.raises(CheckpointError, match="different"):
            CheckpointStore.create(
                store.run_dir, kind="chaos", seed=7, config={"other": True}
            )

    def test_recreate_same_config_restarts_from_scratch(self, store):
        with store.open_wal() as wal:
            store.append_wal(wal, {"index": 0})
        store.write_checkpoint(1, {"x": 1}, trace_bytes=0, wal_records=1)
        store.write_result({"done": True})
        fresh = CheckpointStore.create(
            store.run_dir, kind="chaos", seed=7, config=CONFIG
        )
        assert fresh.read_wal() == ([], 0)
        assert fresh.latest_checkpoint() is None
        assert not fresh.completed


class TestWal:
    def test_append_and_read(self, store):
        with store.open_wal() as wal:
            for index in range(3):
                store.append_wal(wal, {"index": index})
        records, valid = store.read_wal()
        assert [r["index"] for r in records] == [0, 1, 2]
        assert valid == store.wal_path.stat().st_size

    def test_torn_tail_is_dropped_and_repairable(self, store):
        with store.open_wal() as wal:
            store.append_wal(wal, {"index": 0})
            store.append_wal(wal, {"index": 1})
        intact = store.wal_path.stat().st_size
        with open(store.wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "torn')  # crash mid-append
        records, valid = store.read_wal()
        assert [r["index"] for r in records] == [0, 1]
        assert valid == intact
        store.truncate_wal(valid)
        assert store.wal_path.stat().st_size == intact

    def test_mid_file_corruption_raises(self, store):
        store.wal_path.write_text('{"index": 0}\nnot json\n{"index": 2}\n')
        with pytest.raises(CheckpointError, match="corrupt WAL"):
            store.read_wal()


class TestCheckpoints:
    def test_json_codec_roundtrip(self, store):
        state = {"cursor": 5, "rng": [1, 2, 3]}
        store.write_checkpoint(5, state, trace_bytes=120, wal_records=5)
        loaded = store.latest_checkpoint()
        assert loaded["state"] == state
        assert loaded["wal_records"] == 5
        assert loaded["trace_bytes"] == 120

    def test_pickle_codec_roundtrip(self, store):
        state = {"objects": (1.5, {"nested": [None, True]})}
        store.write_checkpoint(
            3, state, trace_bytes=0, wal_records=3, codec="pickle"
        )
        assert store.latest_checkpoint()["state"] == state

    def test_unknown_codec_rejected(self, store):
        with pytest.raises(CheckpointError, match="codec"):
            store.write_checkpoint(
                1, {}, trace_bytes=0, wal_records=1, codec="yaml"
            )

    def test_truncated_snapshot_falls_back_to_older_valid_one(self, store):
        store.write_checkpoint(3, {"cursor": 3}, trace_bytes=0, wal_records=3)
        newest = store.write_checkpoint(
            6, {"cursor": 6}, trace_bytes=0, wal_records=6
        )
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])  # crash left half a file
        loaded = store.latest_checkpoint()
        assert loaded["state"] == {"cursor": 3}

    def test_bit_flip_is_detected_by_digest(self, store):
        path = store.write_checkpoint(
            2, {"cursor": 2}, trace_bytes=0, wal_records=2
        )
        payload = json.loads(path.read_text())
        payload["state"]["cursor"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="digest"):
            store.load_checkpoint(path)
        assert store.latest_checkpoint() is None  # skipped, nothing older

    def test_stale_config_hash_raises_clearly(self, store, tmp_path):
        other = CheckpointStore.create(
            tmp_path / "other",
            kind="chaos",
            seed=7,
            config={**CONFIG, "buyers": 40},
        )
        foreign = other.write_checkpoint(
            4, {"cursor": 4}, trace_bytes=0, wal_records=4
        )
        shutil.copy(foreign, store.checkpoint_dir / foreign.name)
        with pytest.raises(CheckpointError, match="stale checkpoint"):
            store.load_checkpoint(store.checkpoint_dir / foreign.name)
        # latest_checkpoint must NOT silently fall back past a foreign
        # snapshot: the whole directory is suspect.
        with pytest.raises(CheckpointError, match="stale checkpoint"):
            store.latest_checkpoint()

    def test_missing_class_makes_a_checkpoint_unusable(
        self, store, monkeypatch
    ):
        """A pickle naming a class this build no longer has is an
        unusable checkpoint, not a traceback: resume falls back past it."""
        store.write_checkpoint(
            3, {"queue": []}, trace_bytes=0, wal_records=3, codec="pickle"
        )
        newest = store.write_checkpoint(
            6, {"queue": [InFlight()]}, trace_bytes=0, wal_records=6,
            codec="pickle",
        )
        assert store.latest_checkpoint()["state"] == {"queue": [InFlight()]}
        monkeypatch.delattr(f"{__name__}.InFlight")
        with pytest.raises(CheckpointError, match="unusable checkpoint") as info:
            store.load_checkpoint(newest)
        assert str(newest) in str(info.value)
        assert "InFlight" in str(info.value)
        assert store.latest_checkpoint()["state"] == {"queue": []}

    def test_restore_check_skips_unrestorable_states(self, store):
        store.write_checkpoint(3, {"cursor": 3}, trace_bytes=0, wal_records=3)
        store.write_checkpoint(6, {"cursor": 6}, trace_bytes=0, wal_records=6)

        def restore(checkpoint):
            if checkpoint["state"]["cursor"] > 3:
                raise CheckpointError("unusable checkpoint: no restore")

        assert store.latest_checkpoint(restore)["state"] == {"cursor": 3}
        assert store.latest_checkpoint()["state"] == {"cursor": 6}

    def test_no_checkpoints_returns_none(self, store):
        assert store.latest_checkpoint() is None


class TestResultAndTrace:
    def test_result_is_the_commit_point(self, store):
        assert not store.completed
        store.write_result({"welfare": 12.5})
        assert store.completed
        assert store.read_result() == {"welfare": 12.5}

    def test_truncate_trace_rejects_foreign_offsets(self, store):
        store.trace_path.write_text("line one\n")
        with pytest.raises(CheckpointError, match="shorter"):
            store.truncate_trace(10_000)

    def test_truncate_trace_cuts_to_offset(self, store):
        store.trace_path.write_text("abcdef")
        store.truncate_trace(3)
        assert store.trace_path.read_text() == "abc"
