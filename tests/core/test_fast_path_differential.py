"""End-to-end differential: the batched Stage-I path vs the reference.

:mod:`repro.core.deferred_acceptance` runs the batched SoA kernel for the
algorithms in ``soa.BATCHED_ALGORITHMS`` and the per-seller set-based
loop otherwise.  These tests prove the whole two-stage pipeline --
matching, per-stage welfare and round counts -- is byte-identical on
both paths (the reference reached by emptying that tuple) across seeds,
market shapes and MWIS algorithm choices.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.soa as soa
from repro.core.two_stage import run_two_stage
from repro.interference.mwis import MwisAlgorithm
from repro.workloads.scenarios import paper_simulation_market


def _fingerprint(market, result):
    """Everything observable about a run, as one comparable value."""
    return {
        "matching": {
            channel: tuple(sorted(result.matching.coalition(channel)))
            for channel in range(market.num_channels)
        },
        "welfare": (
            result.welfare_stage1,
            result.welfare_phase1,
            result.welfare_phase2,
        ),
        "rounds": (
            result.rounds_stage1,
            result.rounds_phase1,
            result.rounds_phase2,
        ),
    }


@pytest.mark.parametrize(
    "algorithm", [MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2, MwisAlgorithm.GWMAX]
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_two_stage_identical_across_kernel_paths(monkeypatch, algorithm, seed):
    def build():
        return paper_simulation_market(
            40, 5, np.random.default_rng([seed, 40]), mwis_algorithm=algorithm
        )

    market = build()
    fast = _fingerprint(market, run_two_stage(market, record_trace=False))
    monkeypatch.setattr(soa, "BATCHED_ALGORITHMS", ())
    market = build()
    reference = _fingerprint(market, run_two_stage(market, record_trace=False))
    assert fast == reference


@pytest.mark.parametrize("monotone_guard", [True, False])
def test_identical_with_and_without_monotone_guard(monkeypatch, monotone_guard):
    def run():
        market = paper_simulation_market(30, 4, np.random.default_rng([9, 30]))
        return _fingerprint(
            market, run_two_stage(market, record_trace=False, monotone_guard=monotone_guard)
        )

    fast = run()
    monkeypatch.setattr(soa, "BATCHED_ALGORITHMS", ())
    assert fast == run()


def test_trace_records_identical(monkeypatch):
    """Round-by-round traces (not just the end state) must coincide."""
    def run():
        market = paper_simulation_market(25, 4, np.random.default_rng([3, 25]))
        result = run_two_stage(market, record_trace=True)
        return result.stage_one.rounds

    fast_rounds = run()
    monkeypatch.setattr(soa, "BATCHED_ALGORITHMS", ())
    reference_rounds = run()
    assert fast_rounds == reference_rounds
