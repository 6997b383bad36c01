"""Nested span tracing with wall and CPU time.

A *span* is one timed region of the pipeline (``stage1``, ``stage2.
transfer``, ``simulator.run`` ...).  Spans nest: the tracer keeps a stack,
so each finished :class:`SpanRecord` knows its depth and parent and the
collection can be rendered as a tree (``repro.obs.summary``) or emitted as
flat events.

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
from typing import Callable, List, Optional, Sequence

__all__ = ["SpanRecord", "SpanTracer", "NullSpanTracer", "self_times"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted region name, e.g. ``"stage2.transfer"``.
    index / parent:
        Position in the tracer's record list and the parent span's index
        (``-1`` for roots).  Children always finish before their parent,
        so a child's index is *smaller* than its parent's.
    depth:
        Nesting depth (0 for roots).
    wall_s / cpu_s:
        Elapsed :func:`time.perf_counter` / :func:`time.process_time`.
    start_s:
        The :func:`time.perf_counter` reading at span entry.  Only
        differences between ``start_s`` values within one process are
        meaningful; the Chrome-trace exporter uses them to lay spans on
        a real timeline.
    """

    name: str
    index: int
    parent: int
    depth: int
    wall_s: float
    cpu_s: float
    start_s: float = 0.0


def self_times(parents: Sequence[int], walls: Sequence[float]) -> List[float]:
    """Self time of every span: its wall minus its direct children's.

    ``parents[i]`` is span ``i``'s parent position (``-1`` for roots)
    and ``walls[i]`` its wall seconds.  Only *direct* children are
    subtracted, because a child's wall already covers its own
    descendants.  The result is floored at 0: clock granularity can make
    children measure longer than their parent.  This is the one
    self-time rule behind the span tree summary, the profile span table
    and the collapsed-stack export.
    """
    child_wall = [0.0] * len(walls)
    for parent, wall in zip(parents, walls):
        if 0 <= parent < len(child_wall):
            child_wall[parent] += wall
    return [max(wall - child, 0.0) for wall, child in zip(walls, child_wall)]


class _ActiveSpan:
    """Context manager for one running span (internal)."""

    __slots__ = ("_tracer", "name", "parent", "depth", "_wall0", "_cpu0")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.parent = -1
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
        #: Index of the record produced by each *open* ancestor is unknown
        #: until it closes, so children remember their parent object and
        #: the tracer fixes up indices as spans finish.
        self._pending_parents: dict = {}

    def span(self, name: str) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("stage1"): ...``."""
        return _ActiveSpan(self, name)

    def _finish(self, active: _ActiveSpan, wall_s: float, cpu_s: float) -> None:
        stack = self._stack
        assert stack and stack[-1] is active, (
            f"span {active.name!r} closed out of order"
        )
        stack.pop()
        index = len(self.records)
        # A parent's index is unknown until it finishes (after us), so the
        # child registers a forward promise keyed by the parent *object*
        # and the parent patches its children when it closes.
        record = SpanRecord(
            name=active.name,
            index=index,
            parent=-1,  # roots stay -1; others patched by _resolve_children
            depth=active.depth,
            wall_s=wall_s,
            cpu_s=cpu_s,
            start_s=active._wall0,
        )
        if stack:
            self._pending_parents.setdefault(id(stack[-1]), []).append(index)
        self.records.append(record)
        self._resolve_children(id(active), index)
        if self.on_finish is not None:
            self.on_finish(self.records[index])

    def _resolve_children(self, parent_key: int, index: int) -> None:
        children = self._pending_parents.pop(parent_key, None)
        if not children:
            return
        for child_index in children:
            old = self.records[child_index]
            self.records[child_index] = SpanRecord(
                name=old.name,
                index=old.index,
                parent=index,
                depth=old.depth,
                wall_s=old.wall_s,
                cpu_s=old.cpu_s,
                start_s=old.start_s,
            )

    def roots(self) -> List[SpanRecord]:
        """Finished top-level spans, in completion order."""
        return [r for r in self.records if r.depth == 0]


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
