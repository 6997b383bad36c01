"""Nested span tracing with wall and CPU time.

A *span* is one timed region of the pipeline (``stage1``, ``stage2.
transfer``, ``simulator.run`` ...).  Spans nest: the tracer keeps a stack,
so each finished :class:`SpanRecord` knows its depth, and the records,
kept in finish order, give the tree (:func:`span_parents`).

This module is the one home of the span schema: :meth:`SpanRecord.
to_event` is the only record-to-event encoding (the recorder's trace
mirror and the profiler both use it), and :func:`span_table` is the only
aggregation of span events into per-name rows, which
:func:`repro.obs.summary.format_span_table` prints for ``--metrics``,
``repro trace summarize`` and ``repro profile top`` alike.

Wall time uses :func:`time.perf_counter`; CPU time uses
:func:`time.process_time`, so a span that mostly sleeps (or waits on a
lossy-network retransmission timer in simulated time) shows wall >> CPU.

:class:`NullSpanTracer` is the disabled backend: ``span(...)`` returns a
shared no-op context manager, so wrapping a region costs two method calls
and zero allocation when tracing is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

__all__ = [
    "SpanRecord",
    "SpanTracer",
    "NullSpanTracer",
    "self_times",
    "span_parents",
    "span_table",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted region name, e.g. ``"stage2.transfer"``.
    depth:
        Nesting depth (0 for roots).  A tracer keeps its records in
        finish order, children before their parent, so depths and order
        give the tree (:func:`span_parents`).
    wall_s / cpu_s:
        Elapsed :func:`time.perf_counter` / :func:`time.process_time`.
    start_s:
        The :func:`time.perf_counter` reading at span entry.  Only
        differences between ``start_s`` values within one process are
        meaningful; the Chrome-trace exporter uses them to lay spans on
        a real timeline.
    """

    name: str
    depth: int
    wall_s: float
    cpu_s: float
    start_s: float = 0.0

    def to_event(self) -> Dict[str, Any]:
        """This span as a ``span`` event, the schema traces store.

        Like the record, the event has no parent link: depth and finish
        order carry the tree, so the recorder can mirror a span the
        moment it finishes, while its parent is still open.
        """
        return {
            "event": "span",
            "name": self.name,
            "depth": self.depth,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "start_s": self.start_s,
        }


def span_parents(depths: Sequence[int]) -> List[int]:
    """Each span's parent position, from the depths of spans in finish order.

    A parent finishes after all its children, so a span adopts every
    span one level deeper that finished since the last span at its own
    depth.  Roots get ``-1``.
    """
    parents = [-1] * len(depths)
    waiting: Dict[int, List[int]] = {}
    for index, depth in enumerate(depths):
        for child in waiting.pop(depth + 1, ()):
            parents[child] = index
        waiting.setdefault(depth, []).append(index)
    return parents


def self_times(parents: Sequence[int], walls: Sequence[float]) -> List[float]:
    """Self time of every span: its wall minus its direct children's.

    ``parents[i]`` is span ``i``'s parent position (``-1`` for roots)
    and ``walls[i]`` its wall seconds.  Only *direct* children are
    subtracted, because a child's wall already covers its own
    descendants.  The result is floored at 0: clock granularity can make
    children measure longer than their parent.  This is the one
    self-time rule behind the span table and the collapsed-stack export.
    """
    child_wall = [0.0] * len(walls)
    for parent, wall in zip(parents, walls):
        if 0 <= parent < len(child_wall):
            child_wall[parent] += wall
    return [max(wall - child, 0.0) for wall, child in zip(walls, child_wall)]


def span_table(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate the ``span`` events of a stream by name into table rows.

    Other event types are skipped, so a whole trace can be passed.  Each
    row carries ``count``, total ``wall_s``/``cpu_s`` and ``self_s`` (wall
    minus *direct* children, by :func:`self_times`).  Rows are sorted by
    descending self time, ties by name.
    """
    spans = [event for event in events if event.get("event") == "span"]
    self_s_of = self_times(
        span_parents([int(span.get("depth", 0)) for span in spans]),
        [float(span.get("wall_s", 0.0)) for span in spans],
    )
    rows: Dict[str, Dict[str, Any]] = {}
    for span, self_s in zip(spans, self_s_of):
        name = str(span.get("name", "span"))
        row = rows.setdefault(
            name,
            {"name": name, "count": 0, "wall_s": 0.0,
             "cpu_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        row["wall_s"] += float(span.get("wall_s", 0.0))
        row["cpu_s"] += float(span.get("cpu_s", 0.0))
        row["self_s"] += self_s
    return sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))


class _ActiveSpan:
    """Context manager for one running span (internal)."""

    __slots__ = ("_tracer", "name", "depth", "_wall0", "_cpu0")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.depth = 0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack
        if stack:
            self.depth = stack[-1].depth + 1
        stack.append(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._tracer._finish(self, wall, cpu)


class SpanTracer:
    """Collects :class:`SpanRecord` values from nested ``span()`` blocks.

    Parameters
    ----------
    on_finish:
        Optional callback invoked with each finished record (the recorder
        uses it to mirror spans into the event stream).
    """

    enabled = True

    def __init__(
        self, on_finish: Optional[Callable[[SpanRecord], None]] = None
    ) -> None:
        self.records: List[SpanRecord] = []
        self.on_finish = on_finish
        self._stack: List[_ActiveSpan] = []

    def span(self, name: str) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("stage1"): ...``."""
        return _ActiveSpan(self, name)

    def _finish(self, active: _ActiveSpan, wall_s: float, cpu_s: float) -> None:
        stack = self._stack
        assert stack and stack[-1] is active, (
            f"span {active.name!r} closed out of order"
        )
        stack.pop()
        record = SpanRecord(
            name=active.name,
            depth=active.depth,
            wall_s=wall_s,
            cpu_s=cpu_s,
            start_s=active._wall0,
        )
        self.records.append(record)
        if self.on_finish is not None:
            self.on_finish(record)


class _NullSpan:
    """Shared no-op context manager handed out by :class:`NullSpanTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullSpanTracer(SpanTracer):
    """Disabled tracer: ``span()`` is a constant-time no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN
