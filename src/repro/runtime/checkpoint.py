"""Write-ahead log + atomic snapshots for durable runs.

A *run directory* is the unit of durability::

    RUN_DIR/
      manifest.json           run identity: kind, seed, config, config hash
      wal.jsonl               one fsynced record per completed epoch/slot
      trace.jsonl             the run's own JSONL event trace
      checkpoints/
        ckpt-00000010.json    atomic state snapshot every N WAL records
      result.json             written once, atomically, on completion

The invariants the layout maintains:

* **Manifest first.**  ``manifest.json`` is written atomically before
  anything else; a directory without one is not a durable run and
  resume refuses it with a clear :class:`~repro.errors.CheckpointError`.
* **WAL before state.**  Each completed step appends one JSON line and
  fsyncs before the run advances, so after any crash the WAL names every
  outcome the process committed to.  A SIGKILL mid-append leaves at most
  one torn final line, which :meth:`CheckpointStore.read_wal` detects
  and :meth:`CheckpointStore.truncate_wal` repairs.
* **Snapshots are atomic and self-verifying.**  Checkpoints go through
  :func:`repro.ioutil.atomic_write_json` (tmp + fsync + rename) and
  embed a SHA-256 digest of their serialised state plus the run's config
  hash; a truncated file, a flipped bit, or a snapshot smuggled in from
  a differently-configured run is rejected at load time, and
  :meth:`CheckpointStore.latest_checkpoint` falls back to the newest
  *valid* snapshot.  So is a state this build cannot use: a pickle that
  names a class it no longer has, or one the run's engine cannot
  restore.
* **Checkpoints anchor the trace.**  Every snapshot records the trace's
  byte length at snapshot time; resume truncates ``trace.jsonl`` to that
  offset and deterministic re-execution regenerates the tail, so the
  resumed trace converges with the uninterrupted run's.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.ioutil import (
    atomic_write_json,
    config_hash,
    fsync_directory,
    read_json,
)

__all__ = ["CheckpointStore", "config_hash"]

#: Bump when the manifest/WAL/checkpoint layout changes incompatibly.
STORE_SCHEMA_VERSION = 1


class CheckpointStore:
    """One durable run directory (see module docstring for the layout)."""

    MANIFEST_NAME = "manifest.json"
    WAL_NAME = "wal.jsonl"
    TRACE_NAME = "trace.jsonl"
    RESULT_NAME = "result.json"
    CHECKPOINT_DIR = "checkpoints"

    def __init__(self, run_dir: os.PathLike, manifest: Dict[str, Any]) -> None:
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self.manifest_path = self.run_dir / self.MANIFEST_NAME
        self.wal_path = self.run_dir / self.WAL_NAME
        self.trace_path = self.run_dir / self.TRACE_NAME
        self.result_path = self.run_dir / self.RESULT_NAME
        self.checkpoint_dir = self.run_dir / self.CHECKPOINT_DIR

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        run_dir: os.PathLike,
        kind: str,
        seed: int,
        config: Dict[str, Any],
    ) -> "CheckpointStore":
        """Initialise a fresh durable run directory.

        Refuses a directory that already holds a *different* run's
        manifest (same kind+config is allowed: re-running the identical
        command restarts the run from scratch).
        """
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "seed": int(seed),
            "config": config,
            "config_hash": config_hash(config),
        }
        existing = run_dir / cls.MANIFEST_NAME
        if existing.exists():
            previous = read_json(existing)
            if previous.get("config_hash") != manifest["config_hash"]:
                raise CheckpointError(
                    f"run directory {run_dir} already belongs to a different "
                    f"run (config hash {previous.get('config_hash')!r} != "
                    f"{manifest['config_hash']!r}); use a fresh directory or "
                    f"'repro resume' to continue the existing run"
                )
        store = cls(run_dir, manifest)
        store.checkpoint_dir.mkdir(exist_ok=True)
        atomic_write_json(store.manifest_path, manifest)
        # Restarting from scratch invalidates any previous attempt's log,
        # snapshots and result.
        store._reset_artifacts()
        return store

    @classmethod
    def open(cls, run_dir: os.PathLike) -> "CheckpointStore":
        """Open an existing durable run directory, validating its manifest."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / cls.MANIFEST_NAME
        if not manifest_path.exists():
            raise CheckpointError(
                f"{run_dir} is not a durable run directory (no "
                f"{cls.MANIFEST_NAME}); start one with --checkpoint-dir"
            )
        try:
            manifest = read_json(manifest_path)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable run manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != STORE_SCHEMA_VERSION:
            raise CheckpointError(
                f"run manifest {manifest_path} has schema "
                f"{manifest.get('schema')!r}; this build understands "
                f"{STORE_SCHEMA_VERSION}"
            )
        for key in ("kind", "seed", "config", "config_hash"):
            if key not in manifest:
                raise CheckpointError(
                    f"run manifest {manifest_path} is missing {key!r}"
                )
        if config_hash(manifest["config"]) != manifest["config_hash"]:
            raise CheckpointError(
                f"run manifest {manifest_path} fails its own config hash "
                f"(the manifest was edited or corrupted)"
            )
        store = cls(run_dir, manifest)
        store.checkpoint_dir.mkdir(exist_ok=True)
        return store

    def _reset_artifacts(self) -> None:
        for path in (self.wal_path, self.result_path):
            try:
                path.unlink()
            except OSError:
                pass
        for stale in sorted(self.checkpoint_dir.glob("ckpt-*.json")):
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return str(self.manifest["kind"])

    @property
    def seed(self) -> int:
        return int(self.manifest["seed"])

    @property
    def config(self) -> Dict[str, Any]:
        return self.manifest["config"]

    @property
    def config_hash(self) -> str:
        return str(self.manifest["config_hash"])

    @property
    def completed(self) -> bool:
        """Whether the run already wrote its final ``result.json``."""
        return self.result_path.exists()

    def read_result(self) -> Dict[str, Any]:
        return read_json(self.result_path)

    def write_result(self, result: Dict[str, Any]) -> None:
        """Atomically mark the run complete (the commit point of a run)."""
        atomic_write_json(self.result_path, result)

    # ------------------------------------------------------------------
    # Write-ahead log
    # ------------------------------------------------------------------
    def open_wal(self) -> "io.TextIOWrapper":  # noqa: F821 - doc only
        """Open the WAL for appending (caller owns the handle)."""
        return open(self.wal_path, "a", encoding="utf-8")

    @staticmethod
    def append_wal(handle, record: Dict[str, Any]) -> None:
        """Append one record and fsync (the WAL durability contract)."""
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def read_wal(self) -> Tuple[List[Dict[str, Any]], int]:
        """Read the WAL tolerantly: ``(records, valid_byte_length)``.

        A torn *final* line (crash mid-append) is excluded from both the
        records and the valid length -- :meth:`truncate_wal` with the
        returned length repairs the file.  A malformed line anywhere
        *before* the tail is real corruption and raises.
        """
        if not self.wal_path.exists():
            return [], 0
        data = self.wal_path.read_bytes()
        records: List[Dict[str, Any]] = []
        valid = 0
        offset = 0
        for line in data.split(b"\n"):
            end = offset + len(line) + 1  # +1 for the newline
            if end <= len(data):  # newline-terminated: a committed record
                stripped = line.strip()
                if stripped:
                    try:
                        records.append(json.loads(stripped))
                    except json.JSONDecodeError as exc:
                        raise CheckpointError(
                            f"corrupt WAL record at byte {offset} of "
                            f"{self.wal_path}: {exc}"
                        ) from exc
                valid = end
            offset = end
        return records, valid

    def truncate_wal(self, valid_bytes: int) -> None:
        """Drop everything after ``valid_bytes`` (torn-tail repair)."""
        if not self.wal_path.exists():
            return
        with open(self.wal_path, "rb+") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint_path(self, index: int) -> Path:
        return self.checkpoint_dir / f"ckpt-{index:08d}.json"

    def write_checkpoint(
        self,
        index: int,
        state: Any,
        trace_bytes: int,
        wal_records: int,
        codec: str = "json",
    ) -> Path:
        """Atomically persist one state snapshot.

        ``index`` is the number of WAL records the snapshot covers (the
        run's logical clock); ``trace_bytes`` is the trace file's length
        at snapshot time; ``codec`` is ``"json"`` for JSON-safe state
        (dynamic runs) or ``"pickle"`` for opaque object graphs
        (distributed simulator state), stored base64-encoded.
        """
        if codec == "json":
            serialised = json.dumps(
                state, sort_keys=True, separators=(",", ":")
            )
            payload_state: Any = state
            digest = hashlib.sha256(serialised.encode("utf-8")).hexdigest()
        elif codec == "pickle":
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            payload_state = base64.b64encode(blob).decode("ascii")
            digest = hashlib.sha256(blob).hexdigest()
        else:
            raise CheckpointError(f"unknown checkpoint codec {codec!r}")
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "index": int(index),
            "wal_records": int(wal_records),
            "trace_bytes": int(trace_bytes),
            "config_hash": self.config_hash,
            "codec": codec,
            "digest": digest,
            "state": payload_state,
        }
        path = self._checkpoint_path(index)
        atomic_write_json(path, payload, indent=None)
        fsync_directory(self.checkpoint_dir)
        return path

    def load_checkpoint(self, path: os.PathLike) -> Dict[str, Any]:
        """Load and fully validate one checkpoint file.

        Raises :class:`~repro.errors.CheckpointError` for unparseable or
        truncated files, digest mismatches, unknown schema/codec, a
        pickled state this build cannot load, and -- most importantly --
        a config hash that differs from this run's (a stale snapshot from
        a different configuration).
        """
        path = Path(path)
        try:
            payload = read_json(path)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("schema") != (
            STORE_SCHEMA_VERSION
        ):
            raise CheckpointError(
                f"checkpoint {path} has unknown schema "
                f"{getattr(payload, 'get', lambda *_: None)('schema')!r}"
            )
        if payload.get("config_hash") != self.config_hash:
            raise CheckpointError(
                f"stale checkpoint {path}: it was written under config hash "
                f"{payload.get('config_hash')!r} but this run is "
                f"{self.config_hash!r}; refusing to restore state from a "
                f"different configuration"
            )
        codec = payload.get("codec")
        if codec == "json":
            serialised = json.dumps(
                payload["state"], sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(serialised.encode("utf-8")).hexdigest()
            state = payload["state"]
        elif codec == "pickle":
            try:
                blob = base64.b64decode(payload["state"])
            except (ValueError, TypeError) as exc:
                raise CheckpointError(
                    f"corrupt checkpoint {path}: bad base64 state: {exc}"
                ) from exc
            digest = hashlib.sha256(blob).hexdigest()
            if digest != payload.get("digest"):
                raise CheckpointError(
                    f"corrupt checkpoint {path}: state digest mismatch"
                )
            try:
                state = pickle.loads(blob)
            except Exception as exc:  # any unpickling failure: unusable
                raise CheckpointError(
                    f"unusable checkpoint {path}: this build cannot load "
                    f"its state ({type(exc).__name__}: {exc})"
                ) from exc
        else:
            raise CheckpointError(
                f"checkpoint {path} uses unknown codec {codec!r}"
            )
        if digest != payload.get("digest"):
            raise CheckpointError(
                f"corrupt checkpoint {path}: state digest mismatch"
            )
        return {
            "index": int(payload["index"]),
            "wal_records": int(payload["wal_records"]),
            "trace_bytes": int(payload["trace_bytes"]),
            "codec": codec,
            "state": state,
            "path": path,
        }

    def latest_checkpoint(
        self, restore: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> Optional[Dict[str, Any]]:
        """Newest *valid* checkpoint, or ``None``.

        Corrupt or unusable snapshots (truncated, digest mismatch,
        unparseable, a state this build cannot load, or one ``restore``
        refuses with a :class:`~repro.errors.CheckpointError`) are
        skipped -- the point of keeping more than one -- but a stale
        config hash raises immediately: every snapshot in this directory
        claims to belong to this run, so a foreign one means the
        directory itself is suspect.
        """
        candidates = sorted(
            self.checkpoint_dir.glob("ckpt-*.json"), reverse=True
        )
        for path in candidates:
            try:
                checkpoint = self.load_checkpoint(path)
                if restore is not None:
                    restore(checkpoint)
                return checkpoint
            except CheckpointError as exc:
                if "stale checkpoint" in str(exc):
                    raise
                continue  # unusable: fall back to the previous snapshot
        return None

    # ------------------------------------------------------------------
    # Trace file management
    # ------------------------------------------------------------------
    def truncate_trace(self, valid_bytes: int) -> None:
        """Cut the trace back to a checkpoint's recorded byte offset."""
        if not self.trace_path.exists():
            if valid_bytes:
                raise CheckpointError(
                    f"checkpoint references {valid_bytes} trace bytes but "
                    f"{self.trace_path} does not exist"
                )
            return
        size = self.trace_path.stat().st_size
        if size < valid_bytes:
            raise CheckpointError(
                f"trace {self.trace_path} is shorter ({size} bytes) than "
                f"its checkpoint's recorded offset ({valid_bytes}); the "
                f"trace was rewritten or the checkpoint is foreign"
            )
        with open(self.trace_path, "rb+") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
