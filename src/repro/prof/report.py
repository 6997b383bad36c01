"""Profile artifacts: write, load, diff and summarise.

The on-disk product of a profiled run is a directory holding

* ``profile.json`` -- the attribution payload (span table, function
  table, allocation table, deterministic cost counters, meta);
* ``profile.collapsed`` -- flamegraph-ready collapsed span stacks;
* ``profile.speedscope.json`` -- the same tree as a speedscope profile.

``repro profile diff`` compares two payloads: wall-time deltas per span
are reported informationally (timings are hardware-dependent), while
any deterministic-counter drift is an *algorithmic* difference and
makes the diff fail.  ``repro profile top`` renders the tables.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.errors import ObservabilityError
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.obs.summary import format_span_table

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_JSON",
    "PROFILE_COLLAPSED",
    "PROFILE_SPEEDSCOPE",
    "write_profile",
    "load_profile",
    "diff_profiles",
    "format_diff",
    "format_top",
]

#: Bump when the profile.json layout changes incompatibly.
PROFILE_SCHEMA_VERSION = 1

PROFILE_JSON = "profile.json"
PROFILE_COLLAPSED = "profile.collapsed"
PROFILE_SPEEDSCOPE = "profile.speedscope.json"


def write_profile(
    directory: str,
    payload: Dict[str, Any],
    span_events: List[Dict[str, Any]],
) -> Dict[str, str]:
    """Atomically write the three profile artifacts; return their paths."""
    from repro.trace.export import to_collapsed, to_speedscope

    os.makedirs(directory, exist_ok=True)
    paths = {
        "profile": os.path.join(directory, PROFILE_JSON),
        "collapsed": os.path.join(directory, PROFILE_COLLAPSED),
        "speedscope": os.path.join(directory, PROFILE_SPEEDSCOPE),
    }
    atomic_write_json(paths["profile"], payload, indent=2)
    atomic_write_text(paths["collapsed"], to_collapsed(span_events))
    atomic_write_json(
        paths["speedscope"], to_speedscope(span_events), indent=2
    )
    return paths


def load_profile(path: str) -> Dict[str, Any]:
    """Load a ``profile.json`` (``path`` may be the file or its dir)."""
    if os.path.isdir(path):
        path = os.path.join(path, PROFILE_JSON)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read profile {path!r}: {exc}")
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ObservabilityError(f"{path!r} is not a profile.json artifact")
    version = payload["schema"]
    if not isinstance(version, int) or version > PROFILE_SCHEMA_VERSION:
        raise ObservabilityError(
            f"profile schema {version!r} is newer than this library "
            f"understands (max {PROFILE_SCHEMA_VERSION})"
        )
    return payload


def diff_profiles(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, List[Dict[str, Any]]]:
    """Structured diff of two profile payloads.

    ``counter_drift`` rows are the deterministic verdict: any entry
    means the two runs executed *different algorithms* (or different
    inputs), not different hardware.  ``span_deltas`` rows are the
    wall-time movement per span name, informational only.
    """
    drift: List[Dict[str, Any]] = []
    counters_a = a.get("counters", {})
    counters_b = b.get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        va = int(counters_a.get(name, 0))
        vb = int(counters_b.get(name, 0))
        if va != vb:
            drift.append({"counter": name, "a": va, "b": vb})
    spans_a = {row["name"]: row for row in a.get("spans", [])}
    spans_b = {row["name"]: row for row in b.get("spans", [])}
    deltas: List[Dict[str, Any]] = []
    for name in sorted(set(spans_a) | set(spans_b)):
        wall_a = float(spans_a.get(name, {}).get("wall_s", 0.0))
        wall_b = float(spans_b.get(name, {}).get("wall_s", 0.0))
        deltas.append({"name": name, "a_wall_s": wall_a, "b_wall_s": wall_b})
    return {"counter_drift": drift, "span_deltas": deltas}


def format_diff(diff: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Human-readable lines for a :func:`diff_profiles` result."""
    lines: List[str] = []
    for row in diff["counter_drift"]:
        va, vb = row["a"], row["b"]
        change = f"{vb / va - 1.0:+.1%}" if va else "new"
        lines.append(
            f"COUNTER DRIFT {row['counter']}: {va} -> {vb} ({change}) "
            f"-- algorithmic difference, not noise"
        )
    if not diff["counter_drift"]:
        lines.append("counters identical: the runs executed the same "
                     "operation sequence")
    for row in diff["span_deltas"]:
        wall_a, wall_b = row["a_wall_s"], row["b_wall_s"]
        if wall_a <= 0.0 and wall_b <= 0.0:
            continue
        change = (
            f"{wall_b / wall_a - 1.0:+.1%}" if wall_a > 0.0 else "new"
        )
        lines.append(
            f"span {row['name']}: {wall_a:.6f}s -> {wall_b:.6f}s ({change})"
        )
    return lines


def format_top(
    payload: Dict[str, Any], limit: int = 10, section: str = "spans"
) -> List[str]:
    """Render one table of a profile payload, most expensive first.

    ``section`` is ``spans`` (the shared span table of
    :func:`repro.obs.summary.format_span_table`, sorted by self time --
    the dominant phase leads), ``functions`` (cProfile self time) or ``allocs``
    (tracemalloc site size).
    """
    if section == "spans":
        rows = payload.get("spans", [])
        if not rows:
            return ["(no spans recorded)"]
        return format_span_table(rows, limit=limit).splitlines()
    if section == "functions":
        rows = payload.get("functions", [])[:limit]
        if not rows:
            return ["(no cProfile data; enable profile.cprofile)"]
        lines = [f"{'function':<48} {'calls':>9} {'self_s':>10} {'cum_s':>10}"]
        for row in rows:
            lines.append(
                f"{row['function']:<48} {row['calls']:>9} "
                f"{row['self_s']:>10.6f} {row['cum_s']:>10.6f}"
            )
        return lines
    if section == "allocs":
        rows = payload.get("allocs", [])[:limit]
        if not rows:
            return ["(no tracemalloc data; enable profile.memory)"]
        lines = [f"{'site':<48} {'size_kb':>10} {'count':>9}"]
        for row in rows:
            lines.append(
                f"{row['site']:<48} {row['size_kb']:>10.1f} "
                f"{row['count']:>9}"
            )
        return lines
    raise ObservabilityError(
        f"unknown profile section {section!r} "
        f"(choose spans, functions or allocs)"
    )
