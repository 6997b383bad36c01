"""Unit tests for the metrics/span text summaries.

``format_span_tree`` now carries a self-time column (wall minus direct
children) and a ``sort`` option; these pin the rendering contract the
CLI's ``--metrics`` flag exposes.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, Recorder
from repro.obs.spans import SpanRecord, SpanTracer
from repro.obs.summary import format_metrics_summary, format_span_tree


def _recorder_with_spans():
    recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
    with recorder.span("root"):
        with recorder.span("fast"):
            pass
        with recorder.span("slow"):
            for _ in range(2000):
                pass
        with recorder.span("leaf"):
            pass
        with recorder.span("leaf"):
            pass
    return recorder


class TestFormatSpanTree:
    def test_three_time_columns_per_line(self):
        tree = format_span_tree(_recorder_with_spans())
        for line in tree.splitlines():
            # "name  wall / cpu / self" -- three slash-separated times.
            assert line.count("/") == 2, line

    def test_repeated_spans_roll_up_with_count(self):
        tree = format_span_tree(_recorder_with_spans())
        assert "leaf x2" in tree

    def test_children_of_repeated_parents_roll_up(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for _ in range(3):
            with recorder.span("round"):
                with recorder.span("mwis"):
                    pass
                with recorder.span("mwis"):
                    pass
        lines = format_span_tree(recorder).splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["round", "x3"],
            ["mwis", "x6"],
        ]

    def test_grandchildren_of_repeated_parents_roll_up(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for _ in range(2):
            with recorder.span("round"):
                for _ in range(2):
                    with recorder.span("stage"):
                        for _ in range(2):
                            with recorder.span("mwis"):
                                pass
        lines = format_span_tree(recorder).splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["round", "x2"],
            ["stage", "x4"],
            ["mwis", "x8"],
        ]

    def test_same_name_under_different_parents_stays_apart(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for parent in ("round", "final", "round"):
            with recorder.span(parent):
                with recorder.span("mwis"):
                    pass
        lines = format_span_tree(recorder).splitlines()
        assert [line.rsplit("  ", 1)[0] for line in lines] == [
            "  round x2",
            "    mwis x2",
            "  final",
            "    mwis",
        ]

    def test_rolled_up_line_sums_every_instance(self):
        tracer = SpanTracer()
        tracer.records = [
            SpanRecord("mwis", 0, 2, 1, wall_s=1.0, cpu_s=0.5),
            SpanRecord("mwis", 1, 2, 1, wall_s=2.0, cpu_s=0.5),
            SpanRecord("round", 2, -1, 0, wall_s=4.0, cpu_s=1.0),
            SpanRecord("mwis", 3, 4, 1, wall_s=3.0, cpu_s=0.5),
            SpanRecord("round", 4, -1, 0, wall_s=5.0, cpu_s=1.0),
        ]
        recorder = Recorder(metrics=MetricsRegistry(), spans=tracer)
        assert format_span_tree(recorder).splitlines() == [
            "  round x2  9.000000s / 2.000000s / 3.000000s",
            "    mwis x3  6.000000s / 1.500000s / 6.000000s",
        ]

    def test_root_self_time_excludes_children(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        with recorder.span("root"):
            with recorder.span("child"):
                for _ in range(2000):
                    pass
        root_line = format_span_tree(recorder).splitlines()[0]
        times = [
            float(part.strip().rstrip("s"))
            for part in root_line.split("  ")[-1].split("/")
        ]
        wall, _cpu, self_s = times
        assert 0.0 <= self_s < wall

    def test_sort_self_puts_most_expensive_sibling_first(self):
        tree = format_span_tree(_recorder_with_spans(), sort="self")
        children = [
            line.strip().split()[0]
            for line in tree.splitlines()
            if line.startswith("    ")
        ]
        assert children[0] == "slow"

    def test_record_order_is_the_default(self):
        tree = format_span_tree(_recorder_with_spans())
        children = [
            line.strip().split()[0]
            for line in tree.splitlines()
            if line.startswith("    ")
        ]
        assert children == ["fast", "slow", "leaf"]

    def test_unknown_sort_rejected(self):
        with pytest.raises(ValueError, match="sort"):
            format_span_tree(_recorder_with_spans(), sort="wall")

    def test_truncation_marker(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for index in range(8):
            with recorder.span(f"span{index}"):
                pass
        tree = format_span_tree(recorder, max_lines=3)
        assert "5 more span lines" in tree

    def test_no_spans_renders_empty(self):
        assert format_span_tree(Recorder()) == ""


class TestFormatMetricsSummary:
    def test_idle_recorder(self):
        assert format_metrics_summary(Recorder()) == "(no metrics recorded)"

    def test_sections_render_with_data(self):
        recorder = _recorder_with_spans()
        recorder.metrics.counter("stage1.rounds").inc(4)
        recorder.metrics.gauge("market.buyers").set(20)
        text = format_metrics_summary(recorder)
        assert "counters:" in text
        assert "stage1.rounds" in text
        assert "spans (wall / cpu / self):" in text

    def test_header_names_the_self_column(self):
        text = format_metrics_summary(_recorder_with_spans())
        assert "spans (wall / cpu / self):" in text
