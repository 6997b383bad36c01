"""Span tracing: nesting, parent links, timing, and the null tracer."""

from __future__ import annotations

import time

import pytest

from repro.obs import MetricsRegistry, Recorder
from repro.obs.spans import NullSpanTracer, SpanRecord, SpanTracer, self_times
from repro.obs.summary import format_span_tree
from repro.prof import span_table
from repro.trace.export import to_collapsed


def _record(name, index, parent, depth, wall):
    return SpanRecord(
        name=name, index=index, parent=parent, depth=depth,
        wall_s=wall, cpu_s=wall,
    )


def _nested_records():
    """grandchild(1.0) < child(3.0) < root(10.0), plus a sibling(2.0)."""
    return [
        _record("grandchild", 0, 1, 2, 1.0),
        _record("child", 1, 3, 1, 3.0),
        _record("sibling", 2, 3, 1, 2.0),
        _record("root", 3, -1, 0, 10.0),
    ]


class TestSpanTracer:
    def test_nesting_depth_and_parent_links(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid"):
                pass
        by_name = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)
        (outer,) = by_name["outer"]
        mids = by_name["mid"]
        (inner,) = by_name["inner"]
        assert outer.depth == 0 and outer.parent == -1
        assert [m.depth for m in mids] == [1, 1]
        assert all(m.parent == outer.index for m in mids)
        assert inner.depth == 2
        assert inner.parent == mids[0].index

    def test_children_finish_before_parents(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r.name for r in tracer.records] == ["b", "a"]
        assert tracer.roots() == [tracer.records[1]]

    def test_wall_time_measures_elapsed(self):
        tracer = SpanTracer()
        with tracer.span("sleep"):
            time.sleep(0.01)
        record = tracer.records[0]
        assert record.wall_s >= 0.009
        assert record.cpu_s >= 0.0
        # Sleeping burns wall clock, not CPU.
        assert record.cpu_s < record.wall_s

    def test_parent_wall_covers_children(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.005)
        inner, outer = tracer.records
        assert outer.wall_s >= inner.wall_s

    def test_on_finish_callback_sees_resolved_records(self):
        seen = []
        tracer = SpanTracer(on_finish=lambda r: seen.append(r.name))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert seen == ["b", "a"]

    def test_sequential_roots(self):
        tracer = SpanTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.parent for r in tracer.records] == [-1, -1]
        assert [r.name for r in tracer.roots()] == ["first", "second"]


class TestNullSpanTracer:
    def test_disabled_and_recordless(self):
        tracer = NullSpanTracer()
        assert tracer.enabled is False
        with tracer.span("anything"):
            with tracer.span("nested"):
                pass
        assert tracer.records == []

    def test_span_is_shared_singleton(self):
        tracer = NullSpanTracer()
        assert tracer.span("a") is tracer.span("b")


class TestSelfTimes:
    def test_leaves_keep_their_whole_wall(self):
        assert self_times([-1, -1], [0.5, 2.0]) == [0.5, 2.0]

    def test_only_direct_children_are_subtracted(self):
        # The child's wall already covers the grandchild, so the root
        # subtracts child + sibling only.
        records = _nested_records()
        assert self_times(
            [r.parent for r in records], [r.wall_s for r in records]
        ) == [1.0, 2.0, 2.0, 5.0]

    def test_children_longer_than_parent_floor_at_zero(self):
        # Clock granularity can make children outlast their parent.
        assert self_times([1, -1], [5.0, 4.0]) == [5.0, 0.0]

    def test_roots_are_independent(self):
        assert self_times([1, -1, 3, -1], [1.0, 4.0, 2.0, 2.5]) == [
            1.0, 3.0, 2.0, 0.5,
        ]

    def test_no_spans(self):
        assert self_times([], []) == []

    def test_tracer_records_in_finish_order(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid"):
                pass
        records = tracer.records
        got = self_times([r.parent for r in records], [r.wall_s for r in records])
        for record, self_s in zip(records, got):
            children = sum(
                r.wall_s for r in records if r.parent == record.index
            )
            assert self_s == max(record.wall_s - children, 0.0)


class TestOneSelfTimeRule:
    """The span tree, the profile table and the flamegraph agree."""

    def test_span_tree_self_column(self):
        tracer = SpanTracer()
        tracer.records = _nested_records()
        recorder = Recorder(metrics=MetricsRegistry(), spans=tracer)
        self_column = {
            line.split()[0]: line.split("/")[-1].strip()
            for line in format_span_tree(recorder).splitlines()
        }
        assert self_column == {
            "root": "5.000000s",
            "child": "2.000000s",
            "grandchild": "1.000000s",
            "sibling": "2.000000s",
        }

    def test_profile_span_table(self):
        rows = {row["name"]: row["self_s"] for row in span_table(_nested_records())}
        assert rows == {
            "root": 5.0, "child": 2.0, "grandchild": 1.0, "sibling": 2.0,
        }

    def test_collapsed_stacks(self):
        events = [
            {"event": "span", "name": r.name, "depth": r.depth,
             "parent": r.parent, "wall_s": r.wall_s}
            for r in _nested_records()
        ]
        stacks = {
            line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
            for line in to_collapsed(events).splitlines()
        }
        assert stacks == {
            "root": 5_000_000,
            "root;child": 2_000_000,
            "root;child;grandchild": 1_000_000,
            "root;sibling": 2_000_000,
        }

    @pytest.mark.parametrize("walls", [(5.0, 4.0), (4.0, 4.0)])
    def test_no_consumer_reports_negative_self(self, walls):
        child_wall, root_wall = walls
        records = [
            _record("child", 0, 1, 1, child_wall),
            _record("root", 1, -1, 0, root_wall),
        ]
        rows = {row["name"]: row["self_s"] for row in span_table(records)}
        assert rows["root"] == 0.0
        events = [
            {"event": "span", "name": r.name, "depth": r.depth,
             "parent": r.parent, "wall_s": r.wall_s}
            for r in records
        ]
        assert to_collapsed(events).splitlines() == [
            f"root;child {int(child_wall * 1e6)}"
        ]
