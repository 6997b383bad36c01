"""Human-readable summaries of a recorder's metrics and spans.

The CLI's ``--metrics`` flag prints this after a command finishes; the
benchmark harness writes the JSON snapshot instead (machine-readable),
so both views come from the same instruments.
"""

from __future__ import annotations

from typing import List

from repro.obs.metrics import snapshot_quantile
from repro.obs.recorder import Recorder
from repro.obs.spans import self_times

__all__ = ["format_metrics_summary", "format_span_tree"]


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

    tree = format_span_tree(recorder)
    if tree:
        lines.append("spans (wall / cpu / self):")
        lines.append(tree)

    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def format_span_tree(
    recorder: Recorder, max_lines: int = 40, sort: str = "record"
) -> str:
    """Indented span tree, aggregated by (depth, name, parent-chain).

    Repeated spans (e.g. one ``stage1.mwis`` per seller per round) are
    rolled up into one line with a count, so the tree stays readable for
    arbitrarily long runs.  Each line shows wall, cpu and *self* time
    (wall minus direct children), so the dominant leaf phase is visible
    without exporting the trace.  ``sort`` orders siblings: ``record``
    keeps first-finish order, ``self`` puts the most expensive first.
    At most ``max_lines`` lines are returned; a truncation marker
    reports anything dropped.
    """
    if sort not in ("record", "self"):
        raise ValueError(
            f"format_span_tree: sort must be 'record' or 'self', got {sort!r}"
        )
    records = recorder.spans.records
    if not records:
        return ""

    # Children finish before parents, so rebuild the tree from the
    # parent indices.  Siblings sharing a name roll up into one group,
    # and the children of *every* record in a group are pooled before
    # they are grouped in turn, so a span repeated under a repeated
    # parent still renders as one line.
    self_s_of = self_times(
        [record.parent for record in records],
        [record.wall_s for record in records],
    )
    children: dict = {}
    for record in records:
        children.setdefault(record.parent, []).append(record)

    lines: List[str] = []

    def render(parent_indices: List[int], indent: int) -> None:
        grouped: dict = {}
        for parent_index in parent_indices:
            for record in children.get(parent_index, []):
                grouped.setdefault(record.name, []).append(record)
        groups = [
            (name, group, sum(self_s_of[r.index] for r in group))
            for name, group in grouped.items()
        ]
        if sort == "self":
            groups.sort(key=lambda item: -item[2])
        for name, group, self_s in groups:
            wall = sum(r.wall_s for r in group)
            cpu = sum(r.cpu_s for r in group)
            count = f" x{len(group)}" if len(group) > 1 else ""
            lines.append(
                f"{'  ' * (indent + 1)}{name}{count}  "
                f"{wall:.6f}s / {cpu:.6f}s / {self_s:.6f}s"
            )
            render([record.index for record in group], indent + 1)

    render([-1], 0)
    if len(lines) > max_lines:
        dropped = len(lines) - max_lines
        lines = lines[:max_lines] + [f"  ... ({dropped} more span lines)"]
    return "\n".join(lines)
