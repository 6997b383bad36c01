"""Exporters: Chrome trace-event JSON and OpenMetrics text.

Two interchange formats, chosen because both are inspectable with stock
tooling and need no dependencies to write:

* **Chrome trace-event JSON** (:func:`to_chrome_trace`) -- loadable in
  Perfetto or ``chrome://tracing``.  Spans become complete (``"X"``)
  events on a ``spans`` process (one track per nesting depth); kernel
  ``msg.*`` events become instants on a ``messages`` process with one
  track per sending agent, timed on the virtual slot clock (1 slot =
  1 ms), so a protocol run reads as a per-agent swimlane diagram.
* **OpenMetrics text** (:func:`to_openmetrics`) -- renders a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` for scraping or
  offline comparison; :func:`counters_from_events` synthesises a
  counters-only snapshot from a raw trace so traces without an embedded
  metrics dump can still be exported.
* **Collapsed stacks** (:func:`to_collapsed`) -- one ``a;b;c  N`` line
  per unique span stack with its *self* time in microseconds, the
  input format of every flamegraph renderer.
* **speedscope JSON** (:func:`to_speedscope`) -- an evented speedscope
  profile of the span tree, loadable at https://www.speedscope.app.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.spans import self_times, span_parents

__all__ = [
    "to_chrome_trace",
    "to_openmetrics",
    "parse_openmetrics",
    "counters_from_events",
    "to_collapsed",
    "to_speedscope",
]

#: Virtual-time scale for slot-clocked events: one slot = 1 ms = 1000 us.
_SLOT_US = 1000.0

_SPAN_PID = 1
_MESSAGE_PID = 2


def to_chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert a trace's spans and message events to Chrome trace JSON.

    Spans with a recorded ``start_s`` are placed on the real
    ``perf_counter`` timeline (relative to the earliest span).  Older
    traces whose spans lack ``start_s`` get a synthesised layout --
    back-to-back per depth track in finish order -- which preserves
    durations but not true concurrency gaps.
    """
    spans = [e for e in events if e.get("event") == "span"]
    messages = [
        e
        for e in events
        if e.get("event") in ("msg.sent", "msg.delivered", "msg.dropped")
    ]

    trace_events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _SPAN_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "spans"},
        },
        {
            "ph": "M",
            "pid": _MESSAGE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "messages"},
        },
    ]

    starts = [e["start_s"] for e in spans if "start_s" in e]
    t0 = min(starts) if starts else 0.0
    depth_cursor: Dict[int, float] = {}
    for span in spans:
        depth = int(span.get("depth", 0))
        duration_us = float(span.get("wall_s", 0.0)) * 1e6
        if "start_s" in span:
            ts = (float(span["start_s"]) - t0) * 1e6
        else:
            ts = depth_cursor.get(depth, 0.0)
            depth_cursor[depth] = ts + duration_us
        trace_events.append(
            {
                "ph": "X",
                "pid": _SPAN_PID,
                "tid": depth,
                "ts": ts,
                "dur": duration_us,
                "name": str(span.get("name", "span")),
                "args": {"cpu_s": span.get("cpu_s", 0.0)},
            }
        )

    # One message track per agent, in first-appearance order.
    agent_tids: Dict[str, int] = {}
    sent_by_id: Dict[int, Dict[str, Any]] = {}

    def tid_for(agent: str) -> int:
        if agent not in agent_tids:
            tid = len(agent_tids) + 1
            agent_tids[agent] = tid
            trace_events.append(
                {
                    "ph": "M",
                    "pid": _MESSAGE_PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": agent},
                }
            )
        return agent_tids[agent]

    for message in messages:
        kind = message["event"]
        msg_id = message.get("id")
        if kind == "msg.sent" and msg_id is not None:
            sent_by_id[int(msg_id)] = message
        if kind == "msg.sent":
            agent = str(message.get("src", "?"))
        elif kind == "msg.delivered":
            agent = str(message.get("dst", "?"))
        else:  # msg.dropped carries no endpoints; recover via the send
            sent = sent_by_id.get(int(msg_id)) if msg_id is not None else None
            agent = str(sent.get("dst", "?")) if sent else "?"
        args = {
            key: value
            for key, value in message.items()
            if key not in ("event", "slot")
        }
        trace_events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": _MESSAGE_PID,
                "tid": tid_for(agent),
                "ts": float(message.get("slot", 0)) * _SLOT_US,
                "name": kind,
                "args": args,
            }
        )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# OpenMetrics
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def to_openmetrics(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Render a metrics snapshot as OpenMetrics exposition text.

    Counters become ``<name>_total``, gauges stay bare, timers become
    ``summary`` count/sum pairs, and histograms become cumulative
    ``le``-labelled buckets.  Bucket upper bounds are exported as
    inclusive per the format even though the registry's buckets are
    right-open; a value landing exactly on a boundary is off by one
    bucket, which the overflow ``+Inf`` bucket always absorbs.
    """
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")

    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, stats in snapshot.get("timers", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_format_value(stats['count'])}")
        lines.append(f"{metric}_sum {_format_value(stats['total_s'])}")

    for name, stats in snapshot.get("histograms", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        boundaries = stats.get("boundaries", [])
        bucket_counts = stats.get("bucket_counts", [])
        for boundary, count in zip(boundaries, bucket_counts):
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{_format_value(boundary)}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {_format_value(stats["count"])}'
        )
        lines.append(f"{metric}_count {_format_value(stats['count'])}")
        lines.append(f"{metric}_sum {_format_value(stats['sum'])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LE_RE = re.compile(r'le="(?P<le>[^"]+)"')


def _parse_number(text: str, line: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ObservabilityError(
            f"bad OpenMetrics sample value in line {line!r}"
        ) from None


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse OpenMetrics exposition text back into a snapshot-shaped dict.

    Inverse of :func:`to_openmetrics`, used by the ``repro watch``
    console (and the CI smoke job) to consume a telemetry server's
    ``/metrics`` endpoint without any client library.  Returns the usual
    ``{"counters", "gauges", "timers", "histograms"}`` groups keyed by
    the *exposition* metric name (i.e. after ``.`` -> ``_`` mangling --
    the mangling is lossy, so original names are not recovered).

    Summaries come back as timer-shaped dicts; histograms come back with
    de-cumulated ``bucket_counts`` plus ``min``/``max`` *approximated*
    from the first/last occupied bucket's boundaries (the text format
    does not carry exact extremes), which is adequate for
    :func:`~repro.obs.metrics.snapshot_quantile` estimates.

    Raises :class:`~repro.errors.ObservabilityError` on malformed input
    or when the terminating ``# EOF`` marker is missing (a truncated
    scrape must not be mistaken for a complete one).
    """
    types: Dict[str, str] = {}
    samples: Dict[str, List[Dict[str, Any]]] = {}
    saw_eof = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if saw_eof:
            raise ObservabilityError("OpenMetrics content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            # HELP/UNIT and other comments are ignored.
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"bad OpenMetrics sample line {line!r}")
        value_text = match.group("value")
        if value_text in ("+Inf", "-Inf", "NaN"):
            value = float(value_text.replace("Inf", "inf").replace("NaN", "nan"))
        else:
            value = _parse_number(value_text, line)
        samples.setdefault(match.group("name"), []).append(
            {"labels": match.group("labels") or "", "value": value}
        )
    if not saw_eof:
        raise ObservabilityError("OpenMetrics text missing # EOF terminator")

    out: Dict[str, Dict[str, Any]] = {
        "counters": {},
        "gauges": {},
        "timers": {},
        "histograms": {},
    }
    for metric, metric_type in types.items():
        if metric_type == "counter":
            rows = samples.get(f"{metric}_total", [])
            if rows:
                out["counters"][metric] = rows[-1]["value"]
        elif metric_type == "gauge":
            rows = samples.get(metric, [])
            if rows:
                out["gauges"][metric] = rows[-1]["value"]
        elif metric_type == "summary":
            count_rows = samples.get(f"{metric}_count", [])
            sum_rows = samples.get(f"{metric}_sum", [])
            count = int(count_rows[-1]["value"]) if count_rows else 0
            total = float(sum_rows[-1]["value"]) if sum_rows else 0.0
            out["timers"][metric] = {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
                "min_s": 0.0,
                "max_s": 0.0,
            }
        elif metric_type == "histogram":
            out["histograms"][metric] = _parse_histogram(metric, samples)
    return out


def _parse_histogram(
    metric: str, samples: Dict[str, List[Dict[str, Any]]]
) -> Dict[str, Any]:
    boundaries: List[float] = []
    cumulatives: List[float] = []
    overflow_cumulative: Optional[float] = None
    for row in samples.get(f"{metric}_bucket", []):
        le_match = _LE_RE.search(row["labels"])
        if le_match is None:
            raise ObservabilityError(
                f"histogram bucket without le label: {metric}"
            )
        le = le_match.group("le")
        if le == "+Inf":
            overflow_cumulative = row["value"]
        else:
            boundaries.append(float(le))
            cumulatives.append(row["value"])
    count_rows = samples.get(f"{metric}_count", [])
    sum_rows = samples.get(f"{metric}_sum", [])
    count = int(count_rows[-1]["value"]) if count_rows else 0
    if count == 0 and overflow_cumulative is not None:
        count = int(overflow_cumulative)
    total = float(sum_rows[-1]["value"]) if sum_rows else 0.0
    bucket_counts: List[int] = []
    previous = 0.0
    for cumulative in cumulatives:
        bucket_counts.append(int(cumulative - previous))
        previous = cumulative
    bucket_counts.append(max(0, count - int(previous)))

    # The text format carries no exact extremes; approximate them from
    # the occupied bucket boundaries so quantile estimates stay sane.
    approx_min = 0.0
    approx_max = 0.0
    occupied = [i for i, c in enumerate(bucket_counts) if c]
    if occupied:
        first, last = occupied[0], occupied[-1]
        approx_min = boundaries[first - 1] if first > 0 else 0.0
        approx_max = (
            boundaries[last] if last < len(boundaries) else boundaries[-1]
        ) if boundaries else 0.0
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "min": approx_min,
        "max": approx_max,
        "boundaries": boundaries,
        "bucket_counts": bucket_counts,
    }


def _span_tree(
    events: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[int], Dict[int, List[int]]]:
    """Span events, their parent positions and a parent -> children map.

    Span events appear in the stream in finish order, so the tree is
    recovered from their depths (:func:`~repro.obs.spans.span_parents`);
    roots have parent ``-1``.
    """
    spans = [e for e in events if e.get("event") == "span"]
    parents = span_parents([int(span.get("depth", 0)) for span in spans])
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        children.setdefault(parent, []).append(index)
    return spans, parents, children


def to_collapsed(events: List[Dict[str, Any]]) -> str:
    """Render a trace's span tree as collapsed flamegraph stacks.

    One ``root;child;leaf  N`` line per unique span stack, where ``N``
    is the stack's *self* wall time (wall minus direct children) in
    integer microseconds.  Identical stacks aggregate; zero-self lines
    are dropped; output is sorted, so two identical traces collapse to
    identical bytes.
    """
    spans, parents, _ = _span_tree(events)
    self_s_of = self_times(
        parents, [float(span.get("wall_s", 0.0)) for span in spans]
    )
    stacks: Dict[str, int] = {}
    for index, self_s in enumerate(self_s_of):
        self_us = int(round(self_s * 1e6))
        if self_us <= 0:
            continue
        frames = []
        cursor = index
        while cursor >= 0:
            frames.append(str(spans[cursor].get("name", "span")))
            cursor = parents[cursor]
        stack = ";".join(reversed(frames))
        stacks[stack] = stacks.get(stack, 0) + self_us
    lines = [f"{stack} {count}" for stack, count in sorted(stacks.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(
    events: List[Dict[str, Any]], name: str = "spans"
) -> Dict[str, Any]:
    """Convert a trace's span tree to an evented speedscope profile.

    The layout is synthesised from the tree -- roots back to back,
    children back to back inside their parent -- so the profile is
    deterministic (independent of real start timestamps) and always
    properly nested.  Durations are the recorded wall seconds.
    """
    spans, _, children = _span_tree(events)
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, Any]] = []

    def frame_of(span_name: str) -> int:
        if span_name not in frame_index:
            frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return frame_index[span_name]

    profile_events: List[Dict[str, Any]] = []

    def emit(index: int, start: float) -> float:
        span = spans[index]
        frame = frame_of(str(span.get("name", "span")))
        wall = float(span.get("wall_s", 0.0))
        profile_events.append({"type": "O", "frame": frame, "at": start})
        cursor = start
        for child in children.get(index, ()):
            cursor = emit(child, cursor)
        end = max(start + wall, cursor)
        profile_events.append({"type": "C", "frame": frame, "at": end})
        return end

    cursor = 0.0
    for root in children.get(-1, ()):
        cursor = emit(root, cursor)

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": cursor,
                "events": profile_events,
            }
        ],
        "activeProfileIndex": 0,
        "exporter": "repro.trace.export",
    }


def counters_from_events(
    events: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Synthesise a counters-only snapshot from a raw event stream.

    Counts events by type under ``trace.events.<type>``, so any trace --
    even one recorded without a metrics registry -- has an OpenMetrics
    rendering.
    """
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("event", "unknown"))
        key = f"trace.events.{kind}"
        counts[key] = counts.get(key, 0) + 1
    return {
        "counters": dict(sorted(counts.items())),
        "gauges": {},
        "timers": {},
        "histograms": {},
    }
