"""Fig. 8 reproduction: running time (rounds) of each stage/phase.

Paper series: the number of rounds consumed by Stage I, Stage II Phase 1
and Stage II Phase 2 on the same sweeps as Fig. 7 (the two figures come
from the same runs; the cached rows are shared with ``bench_fig7``).

Expected shapes (Section V-C): with N >> M, Stage I's round count is
driven mainly by M, not N; Phase 1's rounds grow linearly with the number
of sellers (its O(M) bound) and are insensitive to the number of buyers;
Phase 2 runs only a few rounds because invitations are scarce.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._shared import print_panel, stage_rows
from repro.analysis.paper_figures import figure_spec
from repro.core.deferred_acceptance import deferred_acceptance
from repro.workloads.scenarios import paper_simulation_market


def _timed_unit(benchmark, num_buyers: int, num_channels: int) -> None:
    market = paper_simulation_market(
        num_buyers, num_channels, np.random.default_rng(997)
    )
    benchmark.pedantic(
        lambda: deferred_acceptance(market, record_trace=False),
        rounds=3,
        iterations=1,
    )


def test_fig8a(benchmark, fig78_reps):
    rows = stage_rows("a", fig78_reps)
    print_panel(
        "Fig. 8(a): rounds per stage vs buyers (M=10)",
        rows,
        figure_spec(8, "a").series,
        "buyers",
        notes="paper: Stage I ~25, Phase 1 ~10 (flat in N), Phase 2 ~2",
    )
    for row in rows:
        # Phase 1 is bounded by M (each buyer applies once per better
        # seller, at most M of them).
        assert row.series["rounds_phase1"].mean <= 10
        # Phase 2 runs only a few rounds.
        assert row.series["rounds_phase2"].mean <= 5
    # Stage I round count is flat-ish in N (driven by M when N >> M):
    stage1 = [row.series["rounds_stage1"].mean for row in rows]
    assert max(stage1) - min(stage1) <= 12
    _timed_unit(benchmark, num_buyers=320, num_channels=10)


def test_fig8b(benchmark, fig78_reps):
    rows = stage_rows("b", fig78_reps)
    print_panel(
        "Fig. 8(b): rounds per stage vs sellers (N=500)",
        rows,
        figure_spec(8, "b").series,
        "sellers",
        notes="paper: Phase 1 grows linearly with M; Stage I grows with M",
    )
    phase1 = [row.series["rounds_phase1"].mean for row in rows]
    # Phase 1 rounds grow with the number of sellers (O(M) bound)...
    assert phase1[-1] > phase1[0]
    # ...and never exceed M itself.
    for row, m in zip(rows, (4, 6, 8, 10, 12, 14, 16)):
        assert row.series["rounds_phase1"].mean <= m
    _timed_unit(benchmark, num_buyers=500, num_channels=16)


def test_fig8c(benchmark, fig78_reps):
    rows = stage_rows("c", fig78_reps)
    print_panel(
        "Fig. 8(c): rounds per stage vs similarity (M=8, N=300)",
        rows,
        figure_spec(8, "c").series,
        "similarity",
        include_srcc=True,
        notes="paper: roughly flat in similarity; Phase 2 a few rounds",
    )
    for row in rows:
        assert row.series["rounds_phase1"].mean <= 8  # O(M), M = 8
        assert row.series["rounds_phase2"].mean <= 5
    _timed_unit(benchmark, num_buyers=300, num_channels=8)
