"""A self-contained span recorder for the traced benchmark pass.

Stdlib only, and deliberately independent of ``repro.obs``,
``repro.trace`` and ``repro.prof``: the instrument must not change when
the package's own span machinery is consolidated.  Spans are recorded
around calls into the package's public functions, kept in memory, and
written out once when the benchmark ends.

A span is ``{trace, id, parent, name, start_s, end_s}``; ``start_s`` and
``end_s`` are seconds since the recorder was created.  A root span opens
a trace (one per benchmark unit); nested spans inherit it.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "SpanRecorder",
    "self_times",
    "totals_by_trace",
    "layer_table",
    "format_layer_table",
    "write_jsonl",
]


class SpanRecorder:
    """Record nested, timed spans in memory (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[dict] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None) -> Iterator[dict]:
        """Time the body as span ``name``.

        A root span (none open) must name its ``trace``; a nested span
        joins its parent's trace and must not name another.
        """
        parent = self._open[-1] if self._open else None
        if parent is None and trace is None:
            raise ValueError(f"root span {name!r} needs a trace id")
        if parent is not None and trace not in (None, parent["trace"]):
            raise ValueError(f"span {name!r} cannot leave its parent's trace")
        record = {
            "trace": parent["trace"] if parent else trace,
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start_s": time.perf_counter() - self._origin,
            "end_s": None,
        }
        self._open.append(record)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter() - self._origin
            self._open.pop()
            self.spans.append(record)


def _duration(span: dict) -> float:
    return span["end_s"] - span["start_s"]


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the
    covered time is the sum of their durations.
    """
    spans = list(spans)
    own = {span["id"]: _duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _duration(span)
    return own


def totals_by_trace(spans: Iterable[dict]) -> Dict[int, Dict[str, float]]:
    """Trace id -> span name -> summed duration of that name in the trace."""
    totals: Dict[int, Dict[str, float]] = {}
    for span in spans:
        names = totals.setdefault(span["trace"], {})
        names[span["name"]] = names.get(span["name"], 0.0) + _duration(span)
    return totals


def layer_table(spans: Iterable[dict]) -> List[dict]:
    """Per span name: count, total, self and median duration, by total."""
    spans = list(spans)
    own = self_times(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(
            span["name"], {"name": span["name"], "durations": [], "self_s": 0.0}
        )
        row["durations"].append(_duration(span))
        row["self_s"] += own[span["id"]]
    table = [
        {
            "name": row["name"],
            "count": len(row["durations"]),
            "total_s": sum(row["durations"]),
            "self_s": row["self_s"],
            "p50_s": statistics.median(row["durations"]),
        }
        for row in rows.values()
    ]
    return sorted(table, key=lambda row: -row["total_s"])


def format_layer_table(table: List[dict]) -> str:
    """Render :func:`layer_table` rows as an aligned text table."""
    width = max([len("span")] + [len(row["name"]) for row in table])
    lines = [
        f"{'span':<{width}}  {'count':>5}  {'total_s':>9}  "
        f"{'self_s':>9}  {'p50_s':>9}"
    ]
    for row in table:
        lines.append(
            f"{row['name']:<{width}}  {row['count']:>5}  {row['total_s']:>9.4f}  "
            f"{row['self_s']:>9.4f}  {row['p50_s']:>9.4f}"
        )
    return "\n".join(lines)


def write_jsonl(spans: Iterable[dict], path) -> None:
    """Write one JSON object per span, in completion order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
