"""Durable runs: execute a market run under WAL + checkpoint protection.

:func:`run_durable` runs a :class:`~repro.run.spec.RunSpec` from scratch
in its checkpoint directory, whose manifest stores the spec's
:meth:`~repro.run.spec.RunSpec.durable_identity`; :func:`spec_from_store`
reads that identity back, for fresh and resumed runs alike.  The run
wraps a deterministic engine -- the epoch loop of
:class:`~repro.dynamic.online.OnlineMatcher` or the slot loop of
:class:`~repro.distributed.simulator.TimeSlottedSimulator` -- with the
durability protocol of :mod:`repro.runtime.checkpoint`:

1. the run directory's ``trace.jsonl`` receives the run's event stream
   (tee'd into the ambient CLI sink when one is live, so ``--trace-out``
   and ``--serve-metrics`` keep working unchanged);
2. after every completed epoch/slot, one WAL record is appended and
   fsynced *before* the run advances;
3. every ``checkpoint_every`` records, the engine state is snapshotted
   atomically together with the trace's current byte length.

Because the engines are pure functions of (config, seed), the WAL tail
doubles as a verification oracle on resume: re-executed steps must
reproduce the recorded outcomes bit for bit, or resume aborts with a
:class:`~repro.errors.CheckpointError` instead of silently forking
history.

``runtime.*`` lifecycle events and counters go to the *ambient* recorder
only -- never into the run-dir trace -- which keeps the trace a pure
function of (config, seed): an interrupted-and-resumed run's trace
converges byte-for-byte with an uninterrupted one.

``durability.inject_stall_after=N`` (CLI ``--inject-stall-after``) makes
the run stop making progress after N WAL records: a deterministic
crash/stall site used by the resume tests, the CI ``resume-smoke`` job
and supervisor stall-detection tests.  It is deliberately refused on
resume -- a resumed run must run to completion.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.distributed.protocol import build_distributed_simulation
from repro.errors import CheckpointError, SpecError
from repro.obs.events import EventSink, JsonlEventSink
from repro.obs.manifest import build_manifest
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    resolve_recorder,
    use_recorder,
)
from repro.run.session import (
    build_distributed_args,
    build_generator,
    build_market,
)
from repro.run.spec import (
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    RunSpec,
)
from repro.runtime.checkpoint import CheckpointStore

__all__ = ["run_durable", "spec_from_store"]

#: The top-level keys of :meth:`RunSpec.durable_identity` a run reads back.
_IDENTITY_KEYS = ("command", "market", "engine", "faults", "checkpoint_every")


def spec_from_store(store: CheckpointStore) -> RunSpec:
    """Read a run directory's stored config into the run's spec.

    The stored config is the spec's
    :meth:`~repro.run.spec.RunSpec.durable_identity`, which every durable
    run writes; a config of any other shape, or a spec that
    :meth:`~repro.run.spec.RunSpec.validate` refuses (say, an engine
    option its command does not read), is refused with a
    :class:`~repro.errors.CheckpointError` naming the manifest.  The
    market seed is always the manifest's.
    """
    if store.kind not in ("dynamic", "chaos"):
        raise CheckpointError(
            f"run manifest declares unknown kind {store.kind!r}; this "
            f"build can resume 'dynamic' and 'chaos' runs"
        )
    config = store.config
    missing = [key for key in _IDENTITY_KEYS if key not in config]
    if missing:
        raise CheckpointError(
            f"run manifest {store.manifest_path} holds no run spec identity "
            f"(config lacks {', '.join(missing)}); this build cannot "
            f"rebuild the run"
        )
    try:
        market = MarketSpec.from_dict(config["market"])
        spec = RunSpec(
            command=config["command"],
            market=dataclasses.replace(market, seed=store.seed),
            engine=EngineSpec.from_dict(config["engine"]),
            faults=FaultSpec.from_dict(config["faults"]),
            durability=DurabilitySpec(
                checkpoint_every=int(config["checkpoint_every"])
            ),
        )
        spec.validate()
    except SpecError as exc:
        raise CheckpointError(
            f"run manifest {store.manifest_path} holds a spec this build "
            f"refuses: {exc}"
        ) from None
    return spec


class _TeeSink(EventSink):
    """Forward events to the run-dir sink and the ambient CLI sink."""

    def __init__(self, owned: EventSink, borrowed: EventSink) -> None:
        self._owned = owned
        self._borrowed = borrowed

    def emit(self, event: Dict[str, Any]) -> None:
        self._owned.emit(event)
        self._borrowed.emit(event)

    def flush(self) -> None:
        self._owned.flush()
        self._borrowed.flush()

    def close(self) -> None:
        # Ownership stays with the callers: the durable runner closes the
        # run-dir sink explicitly; the CLI closes the ambient one.
        self.flush()


class _DurableRun:
    """Shared WAL/trace/checkpoint plumbing for one durable execution."""

    def __init__(
        self,
        store: CheckpointStore,
        recorder: Optional[Recorder],
        fresh: bool,
        inject_stall_after: Optional[int],
        prior_records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if not fresh and inject_stall_after is not None:
            raise CheckpointError(
                "--inject-stall-after applies to fresh runs only; a resumed "
                "run must run to completion"
            )
        self.store = store
        #: The run's spec, read once from the stored config.
        self.spec = spec_from_store(store)
        self.ambient = resolve_recorder(recorder)
        self.inject_stall_after = inject_stall_after
        #: All committed WAL records, prior (on resume) plus new.
        self.records: List[Dict[str, Any]] = list(prior_records or [])
        #: Recorded records past the restore point, used as the
        #: verification oracle while re-executing.
        self.verify_tail: Dict[int, Dict[str, Any]] = {}
        self.checkpoints_written = 0

        mode = "w" if fresh else "a"
        self._trace_stream = open(
            store.trace_path, mode, encoding="utf-8"
        )
        manifest = None
        if fresh:
            manifest = build_manifest(
                seed=store.seed,
                config={"kind": store.kind, **store.config},
            )
        self.sink = JsonlEventSink(self._trace_stream, manifest=manifest)
        events: EventSink = self.sink
        if self.ambient.events.enabled:
            events = _TeeSink(self.sink, self.ambient.events)
        #: Recorder handed to the engine: run-dir events (tee'd to the
        #: ambient sink), ambient metrics and run registry, no spans (span
        #: events carry wall-clock fields and would make the trace
        #: nondeterministic).
        self.recorder = Recorder(
            events=events,
            metrics=self.ambient.metrics,
            runs=self.ambient.runs,
        )
        self._wal_handle = store.open_wal()

    # ------------------------------------------------------------------
    def commit_record(self, record: Dict[str, Any]) -> None:
        """Append one WAL record, verifying against a recorded twin.

        On resume, re-executed steps land on indices the WAL already
        holds; determinism demands the recomputed record match exactly.
        """
        index = int(record["index"])
        expected = self.verify_tail.pop(index, None)
        if expected is not None and expected != record:
            raise CheckpointError(
                f"resume diverged from the WAL at index {index}: recorded "
                f"{expected!r}, recomputed {record!r}; the run directory "
                f"does not belong to this configuration/build"
            )
        self.store.append_wal(self._wal_handle, record)
        self.records.append(record)

    def maybe_checkpoint(self, state_fn, codec: str) -> None:
        """Snapshot the engine when the checkpoint cadence is due."""
        count = len(self.records)
        every = self.spec.durability.checkpoint_every
        if every <= 0 or count % every:
            return
        # The snapshot anchors the trace at its current durable length:
        # flush the sink's buffer, push it to disk, then measure.
        self.sink.flush()
        self._trace_stream.flush()
        os.fsync(self._trace_stream.fileno())
        trace_bytes = self.store.trace_path.stat().st_size
        self.store.write_checkpoint(
            index=count,
            state=state_fn(),
            trace_bytes=trace_bytes,
            wal_records=count,
            codec=codec,
        )
        self.checkpoints_written += 1
        self.ambient.emit(
            "runtime.checkpoint", index=count, run_dir=str(self.store.run_dir)
        )
        if self.ambient.metrics.enabled:
            self.ambient.metrics.counter("runtime.checkpoints").inc()

    def maybe_stall(self) -> None:
        """Deterministic fault injection: stop progressing, await SIGKILL."""
        if (
            self.inject_stall_after is not None
            and len(self.records) >= self.inject_stall_after
        ):
            while True:  # pragma: no cover - only ever exits via SIGKILL
                time.sleep(0.05)

    def close(self) -> None:
        self.sink.close()
        self._trace_stream.close()
        self._wal_handle.close()


# ----------------------------------------------------------------------
# Dynamic (epoch-stream) runs
# ----------------------------------------------------------------------
def _drive_dynamic(run: _DurableRun, generator, matcher) -> Dict[str, Any]:
    """Execute the epochs after the committed records under WAL protection."""
    store = run.store
    epochs = run.spec.market.workload.epochs
    for index in range(len(run.records), epochs):
        epoch = generator.next_epoch()
        outcome = matcher.step(epoch)
        run.commit_record(
            {
                "index": index,
                "epoch": outcome.epoch_index,
                "buyers": epoch.market.num_buyers,
                "welfare": outcome.social_welfare,
                "churned": outcome.churned,
                "persistent": outcome.persistent,
                "rounds": outcome.rounds,
            }
        )
        run.maybe_checkpoint(
            lambda: {
                "generator": generator.snapshot(),
                "matcher": matcher.snapshot(),
            },
            codec="json",
        )
        run.maybe_stall()
    if run.verify_tail:
        raise CheckpointError(
            f"WAL holds records past the configured horizon: indices "
            f"{sorted(run.verify_tail)[:5]} (epochs={epochs})"
        )
    records = run.records
    if run.recorder.enabled and records:
        # Mirror OnlineMatcher.run()'s closing lifecycle event exactly.
        run.recorder.emit(
            "dynamic.run_end",
            strategy=matcher.strategy.value,
            epochs=len(records),
            social_welfare=records[-1]["welfare"],
            total_churned=sum(r["churned"] for r in records),
            total_rounds=sum(r["rounds"] for r in records),
        )
    result = {
        "kind": "dynamic",
        "strategy": matcher.strategy.value,
        "epochs": len(records),
        "social_welfare": records[-1]["welfare"] if records else 0.0,
        "total_welfare": sum(r["welfare"] for r in records),
        "total_churned": sum(r["churned"] for r in records),
        "total_rounds": sum(r["rounds"] for r in records),
        "assignment": matcher.snapshot()["assignment"],
    }
    store.write_result(result)
    return result


# ----------------------------------------------------------------------
# Distributed chaos (slot-stream) runs
# ----------------------------------------------------------------------
def _build_chaos_simulation(spec: RunSpec, recorder: Recorder):
    return build_distributed_simulation(
        build_market(spec.market),
        recorder=recorder,
        **build_distributed_args(spec),
    )


def _drive_chaos(run: _DurableRun, sim) -> Dict[str, Any]:
    """Run the simulator to quiescence under WAL protection."""
    store = run.store

    def on_slot(s) -> None:
        run.commit_record(
            {
                "index": s.now,
                "sent": s.messages_sent,
                "delivered": s.messages_delivered,
                "dropped": s.messages_dropped,
                "lost_to_crash": s.messages_lost_to_crash,
                "crashes": s.crashes,
                "restarts": s.restarts,
            }
        )
        run.maybe_checkpoint(s.snapshot_state, codec="pickle")
        run.maybe_stall()

    slots = sim.run(on_slot=on_slot)
    if run.verify_tail:
        raise CheckpointError(
            f"WAL holds records past quiescence: indices "
            f"{sorted(run.verify_tail)[:5]} (slots={slots})"
        )
    outcome = sim.finalize(slots)
    matching = outcome.matching
    result = {
        "kind": "chaos",
        "status": outcome.status,
        "slots": outcome.slots,
        "social_welfare": outcome.social_welfare,
        "matched": matching.num_matched(),
        "assignment": {
            str(j): matching.channel_of(j)
            for j in range(matching.num_buyers)
            if matching.channel_of(j) is not None
        },
        "messages_sent": outcome.messages_sent,
        "messages_delivered": outcome.messages_delivered,
        "messages_dropped": outcome.messages_dropped,
        "messages_lost_to_crash": outcome.messages_lost_to_crash,
        "crashes": outcome.crashes,
        "restarts": outcome.restarts,
        "partition_drops": outcome.partition_drops,
        "view_divergences": outcome.view_divergences,
    }
    store.write_result(result)
    return result


# ----------------------------------------------------------------------
# Fresh and resumed runs alike
# ----------------------------------------------------------------------
def run_durable(
    spec: RunSpec, recorder: Optional[Recorder] = None
) -> Dict[str, Any]:
    """Run a ``distributed``, ``chaos`` or ``dynamic`` spec durably.

    The run starts from scratch in ``spec.durability.checkpoint_dir``,
    whose manifest stores :meth:`~repro.run.spec.RunSpec.durable_identity`
    under the store kind ``dynamic`` (the ``dynamic`` command) or
    ``chaos`` (the ``distributed`` and ``chaos`` commands).  ``recorder``
    is the ambient recorder the run's events are tee'd into.  A spec
    :meth:`~repro.run.spec.RunSpec.validate` refuses raises its
    :class:`~repro.errors.SpecError` before the directory is made.
    """
    spec.validate()
    store = CheckpointStore.create(
        spec.durability.checkpoint_dir,
        kind="dynamic" if spec.command == "dynamic" else "chaos",
        seed=spec.market.seed,
        config=spec.durable_identity(),
    )
    run = _DurableRun(
        store,
        recorder,
        fresh=True,
        inject_stall_after=spec.durability.inject_stall_after,
    )
    return _run_to_completion(run)


def _build_engine(
    spec: RunSpec,
    kind: str,
    recorder: Recorder,
    checkpoint: Optional[Dict[str, Any]] = None,
):
    """The run's engine, rebuilt from ``spec`` with ``checkpoint`` restored.

    ``(generator, matcher)`` for a ``dynamic`` store, the
    :class:`~repro.distributed.protocol.DistributedSimulation` for a
    ``chaos`` one.
    """
    from repro.dynamic.online import OnlineMatcher, RematchStrategy

    if kind == "dynamic":
        generator = build_generator(spec.market)
        matcher = OnlineMatcher(
            RematchStrategy(spec.market.workload.strategy), recorder=recorder
        )
        if checkpoint is not None:
            generator.restore(checkpoint["state"]["generator"])
            matcher.restore(checkpoint["state"]["matcher"])
        return generator, matcher
    sim = _build_chaos_simulation(spec, recorder)
    if checkpoint is not None:
        sim.simulator.restore_state(checkpoint["state"])
    return sim


def _restore_check(store: CheckpointStore) -> Callable[[Dict[str, Any]], None]:
    """A check that a loaded checkpoint restores into this build's engine.

    The check restores the checkpoint into a freshly built engine without
    telemetry and raises :class:`~repro.errors.CheckpointError` if that
    fails, e.g. on a snapshot an older build wrote with other agent
    state.  :meth:`CheckpointStore.latest_checkpoint` then skips it.
    """
    spec = spec_from_store(store)

    def check(checkpoint: Dict[str, Any]) -> None:
        try:
            with use_recorder(NULL_RECORDER):
                _build_engine(spec, store.kind, NULL_RECORDER, checkpoint)
        except Exception as exc:  # whatever the old state trips: unusable
            raise CheckpointError(
                f"unusable checkpoint {checkpoint['path']}: this build "
                f"cannot restore its state ({type(exc).__name__}: {exc})"
            ) from exc

    return check


def _run_to_completion(
    run: _DurableRun, checkpoint: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Rebuild the engine from the run's spec and drive it to the end.

    ``checkpoint`` (from :meth:`CheckpointStore.latest_checkpoint`) is
    restored into the rebuilt engine; without one the run starts from
    its first step.  Closes ``run`` either way.
    """
    try:
        engine = _build_engine(
            run.spec, run.store.kind, run.recorder, checkpoint
        )
        if run.store.kind == "dynamic":
            return _drive_dynamic(run, *engine)
        if checkpoint is None:
            engine.emit_run_start()
        return _drive_chaos(run, engine)
    finally:
        run.close()
