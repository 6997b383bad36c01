"""The durable rebuild from the stored config.

A run directory stores its config in one shape: the spec's
``durable_identity()``, which every durable run writes.  ``resume_run``
reads it into a spec, rebuilds the engine from it, restores the latest
checkpoint and replays the rest of the run against the WAL.  Deleting
``result.json`` from a finished run forces exactly that path; the
rebuilt run must land on the identical result and trace.  A manifest
whose config has any other shape (the flat mapping older durable
runners wrote) is refused.
"""

from __future__ import annotations

import re
import shutil

import pytest

from repro.errors import CheckpointError
from repro.run.session import Session
from repro.run.spec import (
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.runtime import CheckpointStore, resume_run
from repro.trace.diff import diff_traces
from repro.trace.reader import load_events

#: 7 epochs at a cadence of 2: three checkpoints and a one-epoch tail.
DYNAMIC_FLAT = dict(
    sellers=3,
    buyers=10,
    arrival_rate=3.0,
    departure_prob=0.1,
    drift=0.05,
    epochs=7,
    seed=11,
    strategy="warm",
    checkpoint_every=2,
)
#: A crash and 10% loss; converges past its sixth checkpoint.
CHAOS_FLAT = dict(
    buyers=10,
    sellers=3,
    seed=3,
    policy="default",
    loss=0.1,
    crashes=["buyer:2@6-12"],
    checkpoint_every=6,
)


def _spec(kind: str, run_dir) -> RunSpec:
    durability = DurabilitySpec(
        checkpoint_dir=str(run_dir),
        checkpoint_every=(DYNAMIC_FLAT if kind == "dynamic" else CHAOS_FLAT)[
            "checkpoint_every"
        ],
    )
    if kind == "dynamic":
        flat = DYNAMIC_FLAT
        return RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=flat["buyers"],
                sellers=flat["sellers"],
                seed=flat["seed"],
                workload=WorkloadSpec(
                    epochs=flat["epochs"],
                    arrival_rate=flat["arrival_rate"],
                    departure_prob=flat["departure_prob"],
                    drift=flat["drift"],
                    strategy=flat["strategy"],
                ),
            ),
            engine=EngineSpec(name="dynamic"),
            durability=durability,
        )
    flat = CHAOS_FLAT
    return RunSpec(
        command="chaos",
        market=MarketSpec(
            buyers=flat["buyers"], sellers=flat["sellers"], seed=flat["seed"]
        ),
        engine=EngineSpec(name="distributed", options={"policy": "default"}),
        faults=FaultSpec(loss=flat["loss"], crashes=tuple(flat["crashes"])),
        durability=durability,
    )


@pytest.mark.parametrize("kind", ["dynamic", "chaos"])
def test_rebuild_from_stored_spec(tmp_path, kind):
    run_dir = tmp_path / "run"
    spec = _spec(kind, run_dir)
    Session(spec).run()
    store = CheckpointStore.open(run_dir)
    assert store.config == spec.durable_identity()
    expected_checkpoints = 3 if kind == "dynamic" else 6
    assert len(list(store.checkpoint_dir.glob("ckpt-*.json"))) == (
        expected_checkpoints
    )
    result = (run_dir / "result.json").read_bytes()
    trace = tmp_path / "trace.jsonl"
    shutil.copy(run_dir / "trace.jsonl", trace)
    records, _ = store.read_wal()
    checkpoint = store.latest_checkpoint()
    assert checkpoint["wal_records"] < len(records)  # a tail to verify

    (run_dir / "result.json").unlink()
    resume_run(run_dir)

    assert (run_dir / "result.json").read_bytes() == result
    diff = diff_traces(
        load_events(str(trace)), load_events(str(run_dir / "trace.jsonl"))
    )
    assert not diff.diverged


@pytest.mark.parametrize("kind", ["dynamic", "chaos"])
def test_flat_config_is_refused(tmp_path, kind):
    flat = DYNAMIC_FLAT if kind == "dynamic" else CHAOS_FLAT
    store = CheckpointStore.create(
        tmp_path / "run", kind=kind, seed=flat["seed"], config=dict(flat)
    )
    with pytest.raises(
        CheckpointError, match=re.escape(str(store.manifest_path))
    ):
        resume_run(tmp_path / "run")
    assert not store.completed
