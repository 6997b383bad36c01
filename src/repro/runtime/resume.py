"""Crash-consistent resume of durable runs (``repro resume RUN_DIR``).

Recovery protocol, in order:

1. **Open and validate** the run directory's manifest
   (:meth:`CheckpointStore.open`): missing, corrupt, foreign-schema or
   hash-inconsistent manifests fail fast with a clear
   :class:`~repro.errors.CheckpointError`.
2. **Idempotency.**  ``result.json`` is the run's atomic commit point; if
   it exists the run already finished and resume returns it unchanged.
3. **Pick the restore point**: the newest *valid* checkpoint (corrupt
   snapshots and states this build cannot load or restore are skipped,
   stale config hashes refuse loudly).  With no usable checkpoint the
   run restarts from scratch -- the WAL of the crashed attempt still
   serves as a verification oracle.
4. **Truncate to the snapshot.**  The trace is cut back to the
   checkpoint's recorded byte offset and the WAL to its record count
   (this also repairs a torn final line from a crash mid-append).
5. **Rebuild and replay.**  The engine is reconstructed from the
   manifest config (construction is deterministic in its arguments),
   the snapshot state is restored into it, and execution continues.
   Every re-executed step's WAL record is compared against the crashed
   attempt's recorded twin: determinism says they must match bit for
   bit, so any divergence (wrong binary, edited config, foreign
   directory) aborts instead of silently forking history.

The net effect is the acceptance property of this subsystem: a seeded
run SIGKILLed mid-step and resumed produces the identical final
matching, welfare, ``result.json`` and canonicalized trace as the same
run left uninterrupted.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.errors import CheckpointError
from repro.obs.recorder import Recorder, resolve_recorder
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.durable import (
    _DurableRun,
    _restore_check,
    _run_to_completion,
)

__all__ = ["resume_run"]


def _wal_byte_offset(store: CheckpointStore, record_count: int) -> int:
    """Byte offset just past the first ``record_count`` WAL lines."""
    offset = 0
    remaining = record_count
    with open(store.wal_path, "rb") as handle:
        while remaining > 0:
            line = handle.readline()
            if not line:
                raise CheckpointError(
                    f"WAL {store.wal_path} holds fewer records than its "
                    f"checkpoint covers ({record_count}); the log was "
                    f"rewritten or the checkpoint is foreign"
                )
            offset += len(line)
            remaining -= 1
    return offset


def resume_run(
    run_dir: "os.PathLike", recorder: Optional[Recorder] = None
) -> Dict[str, Any]:
    """Resume (or idempotently report) a durable run directory."""
    store = CheckpointStore.open(run_dir)
    ambient = resolve_recorder(recorder)

    if store.completed:
        if ambient.enabled:
            ambient.emit(
                "runtime.resume",
                run_dir=str(store.run_dir),
                kind=store.kind,
                already_complete=True,
            )
        return store.read_result()

    checkpoint = store.latest_checkpoint(_restore_check(store))
    records, valid_bytes = store.read_wal()
    store.truncate_wal(valid_bytes)  # repair a torn tail either way

    if checkpoint is None:
        # No usable snapshot: restart from scratch.  The crashed
        # attempt's WAL still verifies the re-execution.
        start = 0
        prior: list = []
        tail = records
        store.truncate_wal(0)
        fresh = True
    else:
        start = checkpoint["wal_records"]
        if len(records) < start:
            raise CheckpointError(
                f"checkpoint {checkpoint['path']} covers {start} WAL "
                f"records but only {len(records)} are on disk"
            )
        prior = records[:start]
        tail = records[start:]
        store.truncate_wal(_wal_byte_offset(store, start))
        store.truncate_trace(checkpoint["trace_bytes"])
        fresh = False

    if ambient.enabled:
        ambient.emit(
            "runtime.resume",
            run_dir=str(store.run_dir),
            kind=store.kind,
            from_index=start,
            wal_tail=len(tail),
            from_scratch=checkpoint is None,
        )
        if ambient.metrics.enabled:
            ambient.metrics.counter("runtime.resumes").inc()

    run = _DurableRun(
        store,
        recorder,
        fresh=fresh,
        inject_stall_after=None,
        prior_records=prior,
    )
    run.verify_tail = {int(r["index"]): r for r in tail}
    return _run_to_completion(run, checkpoint)
