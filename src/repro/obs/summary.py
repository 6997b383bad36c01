"""Human-readable summaries of a recorder's metrics and spans.

The CLI's ``--metrics`` flag prints this after a command finishes; the
benchmark harness writes the JSON snapshot instead (machine-readable),
so both views come from the same instruments.  :func:`format_span_table`
is the one span printer: ``--metrics``, ``repro trace summarize`` and
``repro profile top`` all print their :func:`~repro.obs.spans.span_table`
rows through it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import snapshot_quantile
from repro.obs.recorder import Recorder
from repro.obs.spans import span_table

__all__ = ["format_metrics_summary", "format_span_table"]


def format_metrics_summary(recorder: Recorder) -> str:
    """Render counters, gauges, timers, histograms and spans as text.

    Sections with no data are omitted; a fully idle recorder renders to
    ``"(no metrics recorded)"``.
    """
    snapshot = recorder.metrics.snapshot()
    lines: List[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            shown = "-" if value is None else f"{value:g}"
            lines.append(f"  {name:<{width}}  {shown}")

    timers = snapshot.get("timers", {})
    if timers:
        lines.append("timers:")
        width = max(len(name) for name in timers)
        for name, stats in timers.items():
            lines.append(
                f"  {name:<{width}}  n={stats['count']} "
                f"total={stats['total_s']:.6f}s mean={stats['mean_s']:.6f}s "
                f"max={stats['max_s']:.6f}s"
            )

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name, stats in histograms.items():
            lines.append(
                f"  {name:<{width}}  n={stats['count']} mean={stats['mean']:g} "
                f"min={stats['min']:g} "
                f"p50={snapshot_quantile(stats, 0.5):g} "
                f"p99={snapshot_quantile(stats, 0.99):g} "
                f"max={stats['max']:g}"
            )

    rows = span_table(record.to_event() for record in recorder.spans.records)
    if rows:
        lines.append("spans:")
        lines.append(format_span_table(rows))

    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def format_span_table(
    rows: Sequence[Dict[str, Any]], limit: Optional[int] = None
) -> str:
    """Render :func:`~repro.obs.spans.span_table` rows as a text table.

    Columns are count, self, wall and CPU seconds, and ``share``: the
    row's self time over the summed self time of *all* rows, so the
    shares of a ``limit``-truncated table still refer to the whole run.
    Returns ``""`` when there are no rows.
    """
    if not rows:
        return ""
    total = sum(row["self_s"] for row in rows)
    lines = [
        f"{'span':<28} {'count':>7} {'self_s':>10} "
        f"{'wall_s':>10} {'cpu_s':>10} {'share':>7}"
    ]
    for row in rows[:limit]:
        share = row["self_s"] / total if total > 0.0 else 0.0
        lines.append(
            f"{row['name']:<28} {row['count']:>7} "
            f"{row['self_s']:>10.6f} {row['wall_s']:>10.6f} "
            f"{row['cpu_s']:>10.6f} {share:>7.1%}"
        )
    return "\n".join(lines)
