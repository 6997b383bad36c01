"""Unit tests for the metrics summary and the shared span table.

``format_span_table`` is the one span printer: ``--metrics``, ``repro
trace summarize`` and ``repro profile top`` all print through it, so
these pin its columns, its ``share`` rule and its truncation.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, Recorder
from repro.obs.spans import SpanTracer, span_table
from repro.obs.summary import format_metrics_summary, format_span_table


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


def _row(name, self_s, count=1, wall_s=None, cpu_s=None):
    return {
        "name": name,
        "count": count,
        "wall_s": self_s if wall_s is None else wall_s,
        "cpu_s": self_s if cpu_s is None else cpu_s,
        "self_s": self_s,
    }


class TestFormatSpanTable:
    def test_columns_and_row_layout(self):
        text = format_span_table(
            [_row("stage1.mwis", 3.0, count=4, wall_s=3.0, cpu_s=2.5),
             _row("two_stage", 1.0, wall_s=4.0, cpu_s=3.5)]
        )
        assert text.splitlines() == [
            "span                           count     self_s     wall_s"
            "      cpu_s   share",
            "stage1.mwis                        4   3.000000   3.000000"
            "   2.500000   75.0%",
            "two_stage                          1   1.000000   4.000000"
            "   3.500000   25.0%",
        ]

    def test_share_is_taken_over_all_rows_before_truncation(self):
        rows = [_row("a", 6.0), _row("b", 3.0), _row("c", 1.0)]
        lines = format_span_table(rows, limit=1).splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[1].split()[0] == "a"
        assert lines[1].endswith("60.0%")

    def test_no_limit_prints_every_row(self):
        rows = [_row(f"s{index}", 1.0) for index in range(12)]
        assert len(format_span_table(rows).splitlines()) == 13

    def test_zero_self_time_has_zero_share(self):
        line = format_span_table([_row("idle", 0.0)]).splitlines()[1]
        assert line.endswith("0.0%")

    def test_no_rows_renders_empty(self):
        assert format_span_table([]) == ""


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

    def test_spans_section_is_the_shared_table(self):
        recorder = _recorder_with_spans()
        rows = span_table(
            record.to_event() for record in recorder.spans.records
        )
        text = format_metrics_summary(recorder)
        assert text.endswith("spans:\n" + format_span_table(rows))
        assert [row["count"] for row in rows if row["name"] == "leaf"] == [2]

    def test_no_spans_no_section(self):
        recorder = Recorder(metrics=MetricsRegistry())
        recorder.metrics.counter("stage1.rounds").inc()
        assert "spans:" not in format_metrics_summary(recorder)
