"""Attribution tables: functions and allocation sites as rows.

Pure functions turning two raw profile sources -- a :mod:`pstats`
statistics mapping and a :mod:`tracemalloc` snapshot -- into plain,
JSON-ready row dicts sorted most-expensive-first.  Span rows come from
:func:`repro.obs.spans.span_table`.  The collector assembles them into
the ``profile.json`` artifact; ``repro profile top`` renders them.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

__all__ = ["function_table", "alloc_table"]


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
