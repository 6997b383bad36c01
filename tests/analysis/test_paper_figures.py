"""Tests for the canonical figure specs (scaled-down executions)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import SweepAxis
from repro.analysis.paper_figures import FIGURE_SPECS, figure_spec, run_figure
from repro.errors import SpectrumMatchingError


class TestSpecTable:
    def test_all_nine_panels_defined(self):
        for figure in (6, 7, 8):
            for panel in ("a", "b", "c"):
                spec = figure_spec(figure, panel)
                assert spec.figure == figure
                assert spec.panel == panel

    def test_fig6_matches_paper_captions(self):
        a = figure_spec(6, "a")
        assert a.axis is SweepAxis.BUYERS
        assert a.num_channels == 4
        assert a.values == (6, 7, 8, 9, 10)
        b = figure_spec(6, "b")
        assert b.num_buyers == 8
        assert b.values == (2, 3, 4, 5, 6)
        c = figure_spec(6, "c")
        assert (c.num_channels, c.num_buyers) == (5, 8)

    def test_fig7_matches_paper_captions(self):
        a = figure_spec(7, "a")
        assert a.num_channels == 10
        assert a.values[0] == 200 and a.values[-1] == 320
        b = figure_spec(7, "b")
        assert b.num_buyers == 500
        c = figure_spec(7, "c")
        assert (c.num_channels, c.num_buyers) == (8, 300)

    def test_fig8_reuses_fig7_parameters(self):
        for panel in ("a", "b", "c"):
            seven = figure_spec(7, panel)
            eight = figure_spec(8, panel)
            assert eight.values == seven.values
            assert eight.num_buyers == seven.num_buyers
            assert eight.num_channels == seven.num_channels

    def test_unknown_panel_rejected(self):
        with pytest.raises(SpectrumMatchingError):
            figure_spec(6, "z")

    def test_no_accidental_extra_specs(self):
        assert len(FIGURE_SPECS) == 9


class TestScaledDownRuns:
    def test_fig6_panel_runs(self):
        spec = figure_spec(6, "a")
        rows = run_figure(spec, repetitions=2, seed=0, values=[6, 7])
        assert len(rows) == 2
        assert all("welfare_ratio" in row.series for row in rows)

    def test_fig7_panel_runs(self):
        spec = figure_spec(7, "a")
        rows = run_figure(spec, repetitions=1, seed=0, values=[30])
        assert "rounds_stage1" in rows[0].series
        assert "welfare_phase2" in rows[0].series

    @pytest.mark.parametrize(
        "key", sorted(FIGURE_SPECS), ids=lambda key: f"fig{key[0]}{key[1]}"
    )
    def test_series_name_columns_of_the_rows(self, key):
        spec = FIGURE_SPECS[key]
        (row,) = run_figure(spec, repetitions=1, seed=0, values=spec.values[:1])
        assert len(spec.series) == 3
        assert set(spec.series) <= set(row.series)

    def test_default_repetitions_applied(self):
        spec = figure_spec(6, "a")
        rows = run_figure(spec, values=[6], seed=0, repetitions=3)
        assert rows[0].series["welfare_ratio"].count == 3
