"""Attribution tables: spans, functions and allocation sites as rows.

Pure functions turning the three raw profile sources -- the recorder's
:class:`~repro.obs.spans.SpanRecord` list, a :mod:`pstats` statistics
mapping and a :mod:`tracemalloc` snapshot -- into plain, JSON-ready row
dicts sorted most-expensive-first.  The collector assembles them into
the ``profile.json`` artifact; ``repro profile top`` renders them.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Sequence

from repro.obs.spans import self_times

__all__ = ["span_table", "function_table", "alloc_table"]


def span_table(records: Sequence[Any]) -> List[Dict[str, Any]]:
    """Aggregate span records by name into attributed phase rows.

    Each row carries ``count``, total ``wall_s``/``cpu_s`` and
    ``self_s`` -- wall time minus the wall time of *direct* children --
    so the dominant leaf phase is visible without any export.  Rows are
    sorted by descending self time, ties by name.
    """
    self_s_of = self_times(
        [record.parent for record in records],
        [record.wall_s for record in records],
    )
    rows: Dict[str, Dict[str, Any]] = {}
    for record, self_s in zip(records, self_s_of):
        row = rows.setdefault(
            record.name,
            {"name": record.name, "count": 0, "wall_s": 0.0,
             "cpu_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        row["wall_s"] += record.wall_s
        row["cpu_s"] += record.cpu_s
        row["self_s"] += self_s
    return sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))


def function_table(stats: Any, top: int = 20) -> List[Dict[str, Any]]:
    """Top functions from a :class:`pstats.Stats` by self (tottime).

    ``stats`` is the ``Stats.stats`` mapping: ``{(file, line, func):
    (cc, nc, tt, ct, callers)}``.  Sites are rendered as
    ``basename:line:func`` to stay readable and machine-portable.
    """
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, funcname), value in stats.items():
        _cc, ncalls, tottime, cumtime = value[0], value[1], value[2], value[3]
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}:{funcname}",
                "calls": int(ncalls),
                "self_s": float(tottime),
                "cum_s": float(cumtime),
            }
        )
    rows.sort(key=lambda r: (-r["self_s"], r["function"]))
    return rows[:top]


def alloc_table(snapshot: Any, top: int = 20) -> List[Dict[str, Any]]:
    """Top allocation sites from a :class:`tracemalloc.Snapshot`.

    The profiler's own machinery (cProfile call records, tracemalloc
    bookkeeping) allocates too; those frames are filtered out so the
    table attributes memory to the *measured* run only.
    """
    import tracemalloc

    snapshot = snapshot.filter_traces(
        [
            tracemalloc.Filter(False, "*cProfile*"),
            tracemalloc.Filter(False, "*tracemalloc*"),
            tracemalloc.Filter(False, "*repro/prof/*"),
        ]
    )
    rows: List[Dict[str, Any]] = []
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        rows.append(
            {
                "site": f"{os.path.basename(frame.filename)}:{frame.lineno}",
                "size_kb": round(stat.size / 1024.0, 1),
                "count": int(stat.count),
            }
        )
    rows.sort(key=lambda r: (-r["size_kb"], r["site"]))
    return rows[:top]
