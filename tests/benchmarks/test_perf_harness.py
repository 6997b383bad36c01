"""The kernels bench's reference side runs the literal MWIS scans.

``BENCH_kernels`` ``speedup`` divides the reference Stage I time by the
batched time, and the committed baselines measured it against the
literal O(V^2) scans.  The reference side must keep solving with those
(``repro.interference.mwis.SCAN_SOLVERS``) however fast the set-based
loop gets, and must leave every patched name as it found it.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks import perf_harness
from repro.core import soa
from repro.interference import mwis
from repro.workloads.scenarios import paper_simulation_market


@pytest.fixture
def scan_calls(monkeypatch):
    calls = []
    for algorithm, scan in list(mwis.SCAN_SOLVERS.items()):

        def counted(*args, _scan=scan, _algorithm=algorithm):
            calls.append(_algorithm)
            return _scan(*args)

        monkeypatch.setitem(mwis.SCAN_SOLVERS, algorithm, counted)
    return calls


@pytest.mark.parametrize("algorithm", list(soa.BATCHED_ALGORITHMS))
def test_reference_side_solves_with_the_literal_scans(scan_calls, algorithm):
    market = paper_simulation_market(
        40, 4, np.random.default_rng([700, 40])
    ).with_mwis_algorithm(algorithm)
    dispatch = dict(mwis._DISPATCH)
    batched = soa.BATCHED_ALGORITHMS

    fast = perf_harness._stage1_once(market, fast=True)[0]
    assert scan_calls == []
    reference = perf_harness._stage1_once(market, fast=False)[0]
    assert scan_calls and set(scan_calls) == {algorithm}

    assert mwis._DISPATCH == dispatch
    assert soa.BATCHED_ALGORITHMS == batched
    assert reference.matching == fast.matching
