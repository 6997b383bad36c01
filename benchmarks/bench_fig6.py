"""Fig. 6 reproduction: optimal matching vs the proposed algorithm.

Paper series: social welfare of (i) the centralised optimal matching and
(ii) the proposed two-stage distributed algorithm, on small markets --
(a) sweeping the number of buyers at M = 4, (b) sweeping the number of
sellers at N = 8, (c) sweeping price similarity at M = 5, N = 8.

Expected shapes (paper Section V-B): the proposed algorithm attains > 90 %
of the optimal social welfare throughout; welfare grows with buyers and
sellers; welfare falls as buyers' utility vectors become more similar.
Each test asserts the shape and prints the regenerated rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._shared import print_panel
from repro.analysis.paper_figures import figure_spec, run_figure
from repro.core.two_stage import run_two_stage
from repro.optimal.branch_and_bound import optimal_matching_branch_and_bound
from repro.workloads.scenarios import paper_simulation_market


def _timed_unit(benchmark, num_buyers: int, num_channels: int) -> None:
    """Register one proposed-vs-optimal evaluation as the timed unit."""
    market = paper_simulation_market(
        num_buyers, num_channels, np.random.default_rng(999)
    )

    def unit():
        result = run_two_stage(market, record_trace=False)
        optimal = optimal_matching_branch_and_bound(market)
        return result.social_welfare, optimal.social_welfare(market.utilities)

    benchmark.pedantic(unit, rounds=3, iterations=1)


def test_fig6a(benchmark, fig6_reps):
    spec = figure_spec(6, "a")
    rows = run_figure(spec, repetitions=fig6_reps)
    print_panel(
        "Fig. 6(a): welfare vs number of buyers (M=4)",
        rows,
        spec.series,
        "buyers",
        notes="paper: optimal ~4.5->7.5, proposed within 90%",
    )
    # Shape assertions: >90% of optimal everywhere, welfare grows with N.
    for row in rows:
        assert row.series["welfare_ratio"].mean > 0.90
    assert rows[-1].series["welfare_proposed"].mean > rows[0].series[
        "welfare_proposed"
    ].mean
    _timed_unit(benchmark, num_buyers=10, num_channels=4)


def test_fig6b(benchmark, fig6_reps):
    spec = figure_spec(6, "b")
    rows = run_figure(spec, repetitions=fig6_reps)
    print_panel(
        "Fig. 6(b): welfare vs number of sellers (N=8)",
        rows,
        spec.series,
        "sellers",
        notes="paper: optimal ~3.5->6.5, proposed within 90%",
    )
    for row in rows:
        assert row.series["welfare_ratio"].mean > 0.90
    assert rows[-1].series["welfare_proposed"].mean > rows[0].series[
        "welfare_proposed"
    ].mean
    _timed_unit(benchmark, num_buyers=8, num_channels=6)


def test_fig6c(benchmark, fig6_reps):
    spec = figure_spec(6, "c")
    rows = run_figure(spec, repetitions=fig6_reps)
    print_panel(
        "Fig. 6(c): welfare vs price similarity (M=5, N=8)",
        rows,
        spec.series,
        "similarity",
        include_srcc=True,
        notes="paper: welfare decreases as similarity -> 1; proposed within 90%",
    )
    for row in rows:
        assert row.series["welfare_ratio"].mean > 0.90
    # Diverse utilities (similarity 0) beat similar ones (similarity 1).
    assert rows[0].series["welfare_proposed"].mean > rows[-1].series[
        "welfare_proposed"
    ].mean
    _timed_unit(benchmark, num_buyers=8, num_channels=5)
