"""Terminal-friendly visualisations of markets and matchings.

Everything in the repository runs headless, so these renderers emit plain
ASCII: a spatial map of the deployment (with per-buyer channel
assignments once matched), per-channel interference summaries with a
degree histogram, and a coalition table.  They exist for the examples,
the CLI and debugging sessions -- all output is deterministic and
snapshot-testable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceMap

__all__ = [
    "render_deployment_map",
    "render_interference_summary",
    "render_matching_table",
    "render_protocol_timeline",
]

#: Channel markers used on the map; unmatched buyers render as '.'.
_CHANNEL_MARKS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_UNMATCHED_MARK = "."
_COLLISION_MARK = "*"

#: ``msg.dropped`` reasons that lose a message at its send.  A
#: ``crash_purge`` loses a message already queued and is not flagged.
_SEND_DROP_REASONS = ("network", "crashed_destination")


def render_deployment_map(
    locations: np.ndarray,
    area_side: float,
    matching: Optional[Matching] = None,
    width: int = 48,
    height: int = 20,
) -> str:
    """Render buyer positions on an ASCII grid.

    Each buyer prints as the letter of her matched channel (``A`` =
    channel 0, ...), ``.`` when unmatched, and ``*`` where several buyers
    share one cell.  A border frames the area.
    """
    locations = np.asarray(locations, dtype=float)
    if locations.ndim != 2 or locations.shape[1] != 2:
        raise MarketConfigurationError("locations must be an (N, 2) array")
    if width < 2 or height < 2:
        raise MarketConfigurationError("grid must be at least 2x2")
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for buyer, (x, y) in enumerate(locations):
        col = min(width - 1, int(x / area_side * width))
        row = min(height - 1, int(y / area_side * height))
        row = height - 1 - row  # y grows upward on the map
        if matching is not None:
            channel = matching.channel_of(buyer)
            mark = (
                _CHANNEL_MARKS[channel % len(_CHANNEL_MARKS)]
                if channel is not None
                else _UNMATCHED_MARK
            )
        else:
            mark = _UNMATCHED_MARK
        grid[row][col] = _COLLISION_MARK if grid[row][col] != " " else mark
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    legend = ""
    if matching is not None:
        used = sorted(
            {
                matching.channel_of(j)
                for j in range(locations.shape[0])
                if matching.channel_of(j) is not None
            }
        )
        legend = "\nlegend: " + "  ".join(
            f"{_CHANNEL_MARKS[c % len(_CHANNEL_MARKS)]}=ch{c}" for c in used
        ) + f"  {_UNMATCHED_MARK}=unmatched  {_COLLISION_MARK}=overlap"
    return f"{border}\n{body}\n{border}{legend}"


def _sparkline(values: Sequence[int]) -> str:
    """Tiny histogram bar using ASCII shade characters."""
    marks = " .:-=+*#%@"
    peak = max(values) if values else 0
    if peak == 0:
        return " " * len(values)
    return "".join(
        marks[min(len(marks) - 1, int(v / peak * (len(marks) - 1)))]
        for v in values
    )


def render_interference_summary(interference: InterferenceMap) -> str:
    """Per-channel interference statistics with a degree histogram.

    Columns: channel id, edge count, density, max degree, and a degree
    histogram sparkline (buckets 0..max_degree).
    """
    lines = ["channel  edges  density  maxdeg  degree histogram"]
    for channel in range(interference.num_channels):
        graph = interference.graph(channel)
        degrees = [graph.degree(j) for j in range(graph.num_buyers)]
        max_degree = max(degrees) if degrees else 0
        buckets = [0] * (max_degree + 1)
        for degree in degrees:
            buckets[degree] += 1
        lines.append(
            f"{channel:>7}  {graph.num_edges:>5}  "
            f"{interference.density(channel):>7.3f}  {max_degree:>6}  "
            f"[{_sparkline(buckets)}]"
        )
    return "\n".join(lines)


def render_protocol_timeline(
    events: Iterable[Mapping[str, Any]],
    max_rows: int = 40,
) -> str:
    """Render a distributed run's message trace as a per-slot timeline.

    ``events`` is a run's event stream, from a
    :class:`~repro.obs.events.ListEventSink` or a trace file; only its
    ``msg.sent`` and ``msg.dropped`` events are read.  One row per
    active slot: total messages sent, a volume bar, and the per-type
    breakdown (sends the network or a crashed destination dropped are
    flagged with ``!``).  Long runs are subsampled to ``max_rows`` rows,
    keeping the busiest slots.
    """
    sends: List[List[Any]] = []  # [slot, type, dropped] per send
    # A send-time drop follows its msg.sent at once, and ids restart
    # with each run of a multi-run trace, so it flags the latest send.
    latest: Dict[Any, int] = {}
    for event in events:
        kind = event.get("event")
        if kind == "msg.sent":
            latest[event["id"]] = len(sends)
            sends.append([event["slot"], event["type"], False])
        elif kind == "msg.dropped" and (
            event.get("reason") in _SEND_DROP_REASONS
        ):
            position = latest.get(event.get("id"))
            if position is not None:
                sends[position][2] = True
    if not sends:
        return "(no events recorded -- run with a live event sink)"
    by_slot: dict = {}
    for slot, message_type, dropped in sends:
        record = by_slot.setdefault(slot, {})
        key = message_type + ("!" if dropped else "")
        record[key] = record.get(key, 0) + 1
    slots = sorted(by_slot)
    if len(slots) > max_rows:
        # Keep the busiest slots, then re-sort chronologically.
        slots = sorted(
            sorted(slots, key=lambda s: -sum(by_slot[s].values()))[:max_rows]
        )
        header = (
            f"slot  msgs  breakdown  (busiest {max_rows} of "
            f"{len(by_slot)} active slots)"
        )
    else:
        header = "slot  msgs  breakdown"
    peak = max(sum(counts.values()) for counts in by_slot.values())
    lines = [header]
    for slot in slots:
        counts = by_slot[slot]
        total = sum(counts.values())
        bar = "#" * max(1, int(total / peak * 12))
        detail = " ".join(
            f"{name}x{count}" for name, count in sorted(counts.items())
        )
        lines.append(f"{slot:>4}  {total:>4}  {bar:<12} {detail}")
    return "\n".join(lines)


def render_matching_table(market: SpectrumMarket, matching: Matching) -> str:
    """Coalition table: members, revenue and load per channel."""
    lines = ["channel  members                                  revenue"]
    for channel in range(market.num_channels):
        members = sorted(matching.coalition(channel))
        names = ", ".join(market.buyer_names[j] for j in members) or "-"
        if len(names) > 40:
            names = names[:37] + "..."
        revenue = matching.seller_revenue(channel, market.utilities)
        label = market.channel_names[channel]
        lines.append(f"{label:>7}  {names:<40} {revenue:>8.4f}")
    unmatched = [
        market.buyer_names[j]
        for j in range(market.num_buyers)
        if not matching.is_matched(j)
    ]
    lines.append(
        f"unmatched ({len(unmatched)}): "
        + (", ".join(unmatched) if unmatched else "-")
    )
    return "\n".join(lines)
