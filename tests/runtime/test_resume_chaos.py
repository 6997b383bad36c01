"""Crash-consistent resume of distributed chaos runs.

Harder than the dynamic case: the checkpoint must capture mid-protocol
simulator state -- in-flight frames, ARQ retransmission buffers (with
their causal ids), crash/restart schedules, partition state and per-slot
RNG position -- and the resumed process must regenerate the exact
remaining trace, message ids included.
"""

from __future__ import annotations

import random

import pytest

from repro.trace.diff import diff_traces
from repro.trace.reader import load_events

from .conftest import run_cli, sigkill, spawn_cli, wait_for_wal


#: Lossy network: every agent is wrapped in the ARQ transport.
ARQ_FAULTS = ("--loss", "0.12", "--crash", "buyer:2@6-12")
#: No loss: the plain protocol agents cross the kill unwrapped.
PARTITION_FAULTS = (
    "--partition",
    "buyer:0,buyer:1|rest@5-20",
    "--deadline-slots",
    "200",
)


def _chaos_args(run_dir, seed: int, faults=ARQ_FAULTS):
    return (
        "chaos",
        "--buyers",
        "10",
        "--sellers",
        "3",
        "--seed",
        str(seed),
        *faults,
        "--checkpoint-dir",
        str(run_dir),
        "--checkpoint-every",
        "10",
    )


@pytest.mark.parametrize(
    "case_seed,faults",
    [
        pytest.param(0, ARQ_FAULTS, id="0"),
        pytest.param(1, ARQ_FAULTS, id="1"),
        pytest.param(2, PARTITION_FAULTS, id="partition-no-loss"),
    ],
)
def test_sigkill_mid_protocol_then_resume_is_byte_identical(
    tmp_path, case_seed, faults
):
    kill_after = random.Random(100 + case_seed).randint(8, 25)
    golden = tmp_path / "golden"
    victim = tmp_path / "victim"
    run_cli(*_chaos_args(golden, seed=3, faults=faults))

    proc = spawn_cli(
        *_chaos_args(victim, seed=3, faults=faults),
        "--inject-stall-after",
        str(kill_after),
    )
    try:
        wait_for_wal(victim, kill_after)
    finally:
        sigkill(proc)
    assert not (victim / "result.json").exists()

    run_cli("resume", str(victim))

    assert (victim / "result.json").read_bytes() == (
        golden / "result.json"
    ).read_bytes()
    diff = diff_traces(
        load_events(str(golden / "trace.jsonl")),
        load_events(str(victim / "trace.jsonl")),
    )
    assert not diff.diverged


def test_resume_rejects_stall_injection(tmp_path):
    run_dir = tmp_path / "run"
    proc = spawn_cli(
        *_chaos_args(run_dir, seed=3), "--inject-stall-after", "5"
    )
    try:
        wait_for_wal(run_dir, 5)
    finally:
        sigkill(proc)
    # The flag only makes sense when starting a run; a resume carrying
    # it would stall forever in CI for no diagnostic value.
    result = run_cli("resume", str(run_dir), "--inject-stall-after", "5",
                     check=False)
    assert result.returncode == 2
