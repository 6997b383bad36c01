"""Fig. 7 reproduction: cumulative social welfare per stage/phase.

Paper series: social welfare accumulated after Stage I, after Stage II
Phase 1, and after Stage II Phase 2, on large markets -- (a) N = 200..320
at M = 10, (b) M = 4..16 at N = 500, (c) similarity 0..1 at M = 8, N = 300.

Expected shapes (Section V-C): most of the Stage II improvement comes from
Phase 1; Phase 2's contribution is minor (invitation opportunities are
scarce) but the final welfare is weakly higher; welfare grows with buyers
and sellers and falls with similarity.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._shared import print_panel, stage_rows
from repro.analysis.paper_figures import figure_spec
from repro.core.two_stage import run_two_stage
from repro.workloads.scenarios import paper_simulation_market


def _timed_unit(benchmark, num_buyers: int, num_channels: int) -> None:
    market = paper_simulation_market(
        num_buyers, num_channels, np.random.default_rng(998)
    )
    benchmark.pedantic(
        lambda: run_two_stage(market, record_trace=False),
        rounds=3,
        iterations=1,
    )


def _assert_cumulative(rows) -> None:
    for row in rows:
        w1 = row.series["welfare_stage1"].mean
        w2 = row.series["welfare_phase1"].mean
        w3 = row.series["welfare_phase2"].mean
        assert w1 <= w2 + 1e-9 <= w3 + 2e-9
        # Phase 1 provides (weakly) more of the Stage-II gain than Phase 2.
        assert (w2 - w1) >= (w3 - w2) - 1e-9


def test_fig7a(benchmark, fig78_reps):
    rows = stage_rows("a", fig78_reps)
    print_panel(
        "Fig. 7(a): cumulative welfare per stage vs buyers (M=10)",
        rows,
        figure_spec(7, "a").series,
        "buyers",
        notes="paper: ~130->210, Phase 1 contributes most of Stage II",
    )
    _assert_cumulative(rows)
    assert rows[-1].series["welfare_phase2"].mean > rows[0].series[
        "welfare_phase2"
    ].mean
    _timed_unit(benchmark, num_buyers=320, num_channels=10)


def test_fig7b(benchmark, fig78_reps):
    rows = stage_rows("b", fig78_reps)
    print_panel(
        "Fig. 7(b): cumulative welfare per stage vs sellers (N=500)",
        rows,
        figure_spec(7, "b").series,
        "sellers",
        notes="paper: ~100->380, grows with sellers",
    )
    _assert_cumulative(rows)
    assert rows[-1].series["welfare_phase2"].mean > rows[0].series[
        "welfare_phase2"
    ].mean
    _timed_unit(benchmark, num_buyers=500, num_channels=16)


def test_fig7c(benchmark, fig78_reps):
    rows = stage_rows("c", fig78_reps)
    print_panel(
        "Fig. 7(c): cumulative welfare per stage vs similarity (M=8, N=300)",
        rows,
        figure_spec(7, "c").series,
        "similarity",
        include_srcc=True,
        notes=(
            "paper: welfare falls as similarity rises. Reproduced shape: the\n"
            "effect is strong at Fig-6 scale (N/M ~ 1.6) but WEAK at this\n"
            "N/M = 37.5 scale -- dense spatial reuse absorbs preference\n"
            "concentration; see EXPERIMENTS.md for the full discussion."
        ),
    )
    _assert_cumulative(rows)
    # Weak-form similarity effect at this scale: fully similar utilities
    # never maximise welfare over the sweep.
    final = [row.series["welfare_phase2"].mean for row in rows]
    assert final[-1] < max(final)
    _timed_unit(benchmark, num_buyers=300, num_channels=8)
