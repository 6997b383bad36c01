"""Span tracing, the span event encoding and the one span table."""

from __future__ import annotations

import time

import pytest

from repro.obs import ListEventSink, Recorder
from repro.obs.spans import (
    NullSpanTracer,
    SpanRecord,
    SpanTracer,
    self_times,
    span_parents,
    span_table,
)
from repro.trace.export import to_collapsed


def _record(name, depth, wall):
    return SpanRecord(name=name, depth=depth, wall_s=wall, cpu_s=wall)


def _nested_records():
    """grandchild(1.0) < child(3.0) < root(10.0), plus a sibling(2.0)."""
    return [
        _record("grandchild", 2, 1.0),
        _record("child", 1, 3.0),
        _record("sibling", 1, 2.0),
        _record("root", 0, 10.0),
    ]


#: Parent positions of :func:`_nested_records`.
NESTED_PARENTS = [1, 3, 3, -1]


def _events(records):
    return [record.to_event() for record in records]


class TestSpanTracer:
    def test_nesting_depth_and_parent_links(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid"):
                pass
        records = tracer.records
        assert [(r.name, r.depth) for r in records] == [
            ("inner", 2), ("mid", 1), ("mid", 1), ("outer", 0),
        ]
        # inner under the first mid, both mids under outer.
        assert span_parents([r.depth for r in records]) == [1, 3, 3, -1]

    def test_children_finish_before_parents(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r.name for r in tracer.records] == ["b", "a"]
        assert [r.depth for r in tracer.records] == [1, 0]

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
        assert [r.depth for r in tracer.records] == [0, 0]


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
            NESTED_PARENTS, [r.wall_s for r in records]
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
        parents = span_parents([r.depth for r in records])
        got = self_times(parents, [r.wall_s for r in records])
        for index, (record, self_s) in enumerate(zip(records, got)):
            children = sum(
                r.wall_s for r, parent in zip(records, parents)
                if parent == index
            )
            assert self_s == max(record.wall_s - children, 0.0)


class TestToEvent:
    def test_event_fields(self):
        record = SpanRecord("stage1", 1, wall_s=0.5, cpu_s=0.25, start_s=12.0)
        assert record.to_event() == {
            "event": "span", "name": "stage1", "depth": 1,
            "wall_s": 0.5, "cpu_s": 0.25, "start_s": 12.0,
        }

    def test_recorder_mirrors_the_encoding(self):
        recorder = Recorder(events=ListEventSink(), spans=SpanTracer())
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        assert recorder.events.of_type("span") == _events(
            recorder.spans.records
        )


class TestSpanParents:
    def test_tree_from_depths_in_finish_order(self):
        records = _nested_records()
        assert span_parents([r.depth for r in records]) == NESTED_PARENTS

    def test_sequential_trees(self):
        # a(b) then c(d(e), f): finish order b a e d f c.
        assert span_parents([1, 0, 2, 1, 1, 0]) == [1, -1, 3, 5, 5, -1]

    def test_repeated_trees_from_a_tracer(self):
        tracer = SpanTracer()
        for _ in range(2):
            with tracer.span("round"):
                with tracer.span("stage"):
                    with tracer.span("mwis"):
                        pass
                with tracer.span("stage"):
                    pass
        records = tracer.records
        assert [r.name for r in records] == ["mwis", "stage", "stage",
                                             "round"] * 2
        assert span_parents([r.depth for r in records]) == [
            1, 3, 3, -1, 5, 7, 7, -1,
        ]

    def test_no_spans(self):
        assert span_parents([]) == []


class TestSpanTable:
    def test_self_time_subtracts_direct_children_only(self):
        # grandchild(1.0) < child(3.0) < root(10.0): the root's self
        # time excludes the child but not the grandchild (which the
        # child already accounts for).
        records = [
            _record("grandchild", 2, 1.0),
            _record("child", 1, 3.0),
            _record("root", 0, 10.0),
        ]
        rows = {row["name"]: row for row in span_table(_events(records))}
        assert rows["root"]["self_s"] == 7.0
        assert rows["child"]["self_s"] == 2.0
        assert rows["grandchild"]["self_s"] == 1.0

    def test_repeated_spans_aggregate_by_name(self):
        records = [
            _record("leaf", 1, 1.0),
            _record("leaf", 1, 2.0),
            _record("root", 0, 5.0),
        ]
        rows = {row["name"]: row for row in span_table(_events(records))}
        assert rows["leaf"]["count"] == 2
        assert rows["leaf"]["wall_s"] == 3.0
        assert rows["root"]["self_s"] == 2.0

    def test_sorted_by_descending_self_time(self):
        records = [
            _record("small", 1, 1.0),
            _record("big", 1, 6.0),
            _record("root", 0, 8.0),
        ]
        assert [row["name"] for row in span_table(_events(records))] == [
            "big",
            "root",
            "small",
        ]

    def test_other_events_are_skipped(self):
        events = [
            {"event": "manifest", "schema_version": 1},
            *_events(_nested_records()),
            {"event": "stage1.round", "round": 1},
        ]
        assert span_table(events) == span_table(_events(_nested_records()))

    def test_row_keys(self):
        (row,) = span_table(_events([_record("solo", 0, 1.0)]))
        assert row == {"name": "solo", "count": 1, "wall_s": 1.0,
                       "cpu_s": 1.0, "self_s": 1.0}

    def test_empty(self):
        assert span_table([]) == []


class TestOneSelfTimeRule:
    """The span table and the flamegraph agree on self time."""

    def test_span_table(self):
        rows = {
            row["name"]: row["self_s"]
            for row in span_table(_events(_nested_records()))
        }
        assert rows == {
            "root": 5.0, "child": 2.0, "grandchild": 1.0, "sibling": 2.0,
        }

    def test_collapsed_stacks(self):
        stacks = {
            line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
            for line in to_collapsed(_events(_nested_records())).splitlines()
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
        events = _events([
            _record("child", 1, child_wall),
            _record("root", 0, root_wall),
        ])
        rows = {row["name"]: row["self_s"] for row in span_table(events)}
        assert rows["root"] == 0.0
        assert to_collapsed(events).splitlines() == [
            f"root;child {int(child_wall * 1e6)}"
        ]
