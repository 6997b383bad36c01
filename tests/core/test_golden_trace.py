"""Golden-trace regression test for the two-stage pipeline.

``tests/data/golden_two_stage_trace.jsonl`` is the committed, reviewed
observability event stream of one small reference market.  The test
replays the identical market and asserts the emitted JSONL matches the
golden file *byte for byte*, on both kernel paths -- any change to
proposal order, tie-breaking, rejection bookkeeping or event encoding
shows up as a diff here before it can silently alter reproduction
results.

Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python tests/core/test_golden_trace.py

and review the diff like any other source change.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

import repro.core.soa as soa
from repro.core.two_stage import run_two_stage
from repro.obs import JsonlEventSink, Recorder, use_recorder
from repro.workloads.scenarios import paper_simulation_market

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_two_stage_trace.jsonl"
)

#: The reference market: small enough to review its trace by hand, big
#: enough to exercise rejections, evictions and both Stage-II phases.
MARKET_PARAMS = dict(num_buyers=20, num_channels=4, rng_seed=[42, 20])


def generate_trace() -> str:
    """Run the reference market and return its event stream as text.

    Events only (no manifest, no spans, no metrics): everything written
    is a deterministic function of the market, so the output is stable
    across machines and runs.
    """
    market = paper_simulation_market(
        MARKET_PARAMS["num_buyers"],
        MARKET_PARAMS["num_channels"],
        np.random.default_rng(MARKET_PARAMS["rng_seed"]),
    )
    buffer = io.StringIO()
    recorder = Recorder(events=JsonlEventSink(buffer))
    with recorder, use_recorder(recorder):
        run_two_stage(market)
    return buffer.getvalue()


@pytest.mark.parametrize("kernel_mode", ["batched", "reference"])
def test_trace_matches_golden_file(monkeypatch, kernel_mode):
    """Both Stage-I paths must replay the golden trace byte-exactly.

    ``batched`` is the default SoA fast path, ``reference`` the
    per-seller set-based loop (reached by emptying
    ``soa.BATCHED_ALGORITHMS``).
    """
    if kernel_mode == "reference":
        monkeypatch.setattr(soa, "BATCHED_ALGORITHMS", ())
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert generate_trace() == golden


def test_golden_file_is_nontrivial():
    """Guard against an accidentally truncated/empty committed trace."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) >= 4
    assert any('"stage1.round"' in line for line in lines)
    assert any('"two_stage.result"' in line for line in lines)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write(generate_trace())
    print(f"wrote {os.path.normpath(GOLDEN_PATH)}")
