"""Trace loading, manifest validation, and per-run summaries.

A trace is a JSONL file (or an in-memory list of event dicts) produced by
:class:`~repro.obs.events.JsonlEventSink`.  Traces written through the CLI
open with a ``manifest`` line; traces written directly by tests or by the
golden-trace generator may be manifest-less -- both are valid input, but a
*present* manifest is validated (it must carry a schema version this
library understands) before anything else is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.events import AnyRound, event_to_round
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION
from repro.obs.spans import span_table
from repro.obs.summary import format_span_table

__all__ = ["TraceReader", "TraceSummary", "format_summary", "load_events"]

#: Event types reconstructible through the round codec.
ROUND_EVENT_TYPES = (
    "stage1.round",
    "stage2.transfer_round",
    "stage2.invitation_round",
)

#: Message-causality event types emitted by the simulation kernel.
MESSAGE_EVENT_TYPES = ("msg.sent", "msg.delivered", "msg.dropped")


def load_events(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace into a list of event dicts.

    ``source`` is a path or any iterable of JSON lines.  Blank lines are
    skipped; a malformed line raises :class:`ObservabilityError` with its
    1-based line number, so a truncated or corrupted trace fails loudly
    instead of silently dropping events.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as stream:
            return _parse_lines(stream, source)
    return _parse_lines(source, "<stream>")


def _parse_lines(lines: Iterable[str], origin: str) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            event = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{origin}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(event, dict) or "event" not in event:
            raise ObservabilityError(
                f"{origin}:{lineno}: not an event object "
                f"(expected a JSON object with an 'event' field)"
            )
        events.append(event)
    return events


@dataclass(frozen=True)
class TraceSummary:
    """Per-run digest computed by :meth:`TraceReader.summary`.

    Attributes
    ----------
    source:
        Where the trace came from (path or ``"<stream>"``).
    num_events / schema_version / seed:
        Stream size and manifest header fields (``None`` without one).
    rounds_stage1 / rounds_transfer / rounds_invitation:
        Recorded algorithm rounds per phase; their sum is the run's
        rounds-to-convergence.
    per_seller:
        ``channel -> {"proposals", "applications", "accepted",
        "rejected", "evicted"}`` accounting aggregated over all rounds.
    welfare_trajectory:
        ``(label, welfare)`` pairs in run order (stage1 / phase1 / phase2
        from ``two_stage.result``, final welfare from a distributed
        ``run_end``) -- the convergence trajectory of Section IV's plots.
    messages_sent / messages_delivered / messages_dropped:
        Kernel message-causality totals (zeros for centralised traces).
    drop_reasons:
        ``reason -> count`` over ``msg.dropped`` events.
    slots:
        Simulated slots (from ``distributed.run_end``; ``None`` otherwise).
    spans:
        The trace's span table (:func:`~repro.obs.spans.span_table` rows;
        empty when the trace carries no spans).
    """

    source: str
    num_events: int
    schema_version: Optional[int]
    seed: Optional[int]
    rounds_stage1: int
    rounds_transfer: int
    rounds_invitation: int
    per_seller: Mapping[int, Mapping[str, int]]
    welfare_trajectory: Tuple[Tuple[str, float], ...]
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    drop_reasons: Mapping[str, int] = field(default_factory=dict)
    slots: Optional[int] = None
    spans: Tuple[Mapping[str, Any], ...] = ()

    @property
    def rounds_to_convergence(self) -> int:
        return self.rounds_stage1 + self.rounds_transfer + self.rounds_invitation


class TraceReader:
    """Validated access to one trace's events, rounds, and summary.

    Parameters
    ----------
    events:
        Parsed event dicts in stream order.
    source:
        Origin label used in summaries and error messages.

    A leading ``manifest`` event is validated on construction: its
    ``schema_version`` must be an integer no newer than this library's
    :data:`~repro.obs.manifest.MANIFEST_SCHEMA_VERSION`.  Manifest-less
    traces (e.g. the committed golden trace) are accepted as-is.
    """

    def __init__(
        self, events: List[Dict[str, Any]], source: str = "<stream>"
    ) -> None:
        self.events = events
        self.source = source
        self.manifest: Optional[Dict[str, Any]] = None
        if events and events[0].get("event") == "manifest":
            self.manifest = events[0]
            self._validate_manifest(self.manifest)

    @classmethod
    def from_file(cls, path: str) -> "TraceReader":
        return cls(load_events(path), source=path)

    def _validate_manifest(self, manifest: Dict[str, Any]) -> None:
        version = manifest.get("schema_version")
        if not isinstance(version, int):
            raise ObservabilityError(
                f"{self.source}: manifest schema_version must be an "
                f"integer, got {version!r}"
            )
        if version > MANIFEST_SCHEMA_VERSION:
            raise ObservabilityError(
                f"{self.source}: manifest schema_version {version} is newer "
                f"than this library understands "
                f"(max {MANIFEST_SCHEMA_VERSION}); upgrade to read this trace"
            )
        for inner in self.events[1:]:
            if inner.get("event") == "manifest":
                raise ObservabilityError(
                    f"{self.source}: multiple manifest lines (corrupt "
                    f"concatenation of two traces?)"
                )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def of_type(self, event_type: str) -> List[Dict[str, Any]]:
        """Events whose ``"event"`` field equals ``event_type``."""
        return [e for e in self.events if e.get("event") == event_type]

    def rounds(self) -> List[AnyRound]:
        """Reconstruct the recorded algorithm rounds, in stream order.

        Uses the same :func:`~repro.obs.events.event_to_round` codec the
        writer used, so reconstruction is exact: the returned dataclasses
        compare equal to the originals.
        """
        return [
            event_to_round(event)
            for event in self.events
            if event.get("event") in ROUND_EVENT_TYPES
        ]

    def messages(self) -> List[Dict[str, Any]]:
        """The kernel's ``msg.*`` causality events, in stream order."""
        return [
            e for e in self.events if e.get("event") in MESSAGE_EVENT_TYPES
        ]

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Compute the per-run digest (see :class:`TraceSummary`)."""
        per_seller: Dict[int, Dict[str, int]] = {}

        def seller(channel: int) -> Dict[str, int]:
            return per_seller.setdefault(
                int(channel),
                {
                    "proposals": 0,
                    "applications": 0,
                    "accepted": 0,
                    "rejected": 0,
                    "evicted": 0,
                },
            )

        rounds_stage1 = rounds_transfer = rounds_invitation = 0
        welfare: List[Tuple[str, float]] = []
        sent = delivered = dropped = 0
        drop_reasons: Dict[str, int] = {}
        slots: Optional[int] = None

        for event in self.events:
            kind = event.get("event")
            if kind == "stage1.round":
                rounds_stage1 += 1
                for channel, buyers in event.get("proposals", {}).items():
                    seller(channel)["proposals"] += len(buyers)
                for _buyer, channel in event.get("evictions", ()):
                    seller(channel)["evicted"] += 1
                for _buyer, channel in event.get("rejections", ()):
                    seller(channel)["rejected"] += 1
            elif kind == "stage2.transfer_round":
                rounds_transfer += 1
                for channel, buyers in event.get("applications", {}).items():
                    seller(channel)["applications"] += len(buyers)
                # Accepted transfers/invitations are (buyer, from_channel,
                # to_channel) triples; credit the gaining seller.
                for _buyer, _from, channel in event.get("accepted", ()):
                    seller(channel)["accepted"] += 1
                for _buyer, channel in event.get("rejected", ()):
                    seller(channel)["rejected"] += 1
            elif kind == "stage2.invitation_round":
                rounds_invitation += 1
                for _buyer, _from, channel in event.get("accepted", ()):
                    seller(channel)["accepted"] += 1
                for channel, _buyer in event.get("declined", ()):
                    seller(channel)["rejected"] += 1
            elif kind == "two_stage.result":
                for label, key in (
                    ("stage1", "welfare_stage1"),
                    ("phase1", "welfare_phase1"),
                    ("phase2", "welfare_phase2"),
                ):
                    if key in event:
                        welfare.append((label, float(event[key])))
            elif kind == "distributed.run_end":
                if "social_welfare" in event:
                    welfare.append(("final", float(event["social_welfare"])))
                if "slots" in event:
                    slots = int(event["slots"])
            elif kind == "msg.sent":
                sent += 1
            elif kind == "msg.delivered":
                delivered += 1
            elif kind == "msg.dropped":
                dropped += 1
                reason = str(event.get("reason", "unknown"))
                drop_reasons[reason] = drop_reasons.get(reason, 0) + 1

        manifest = self.manifest or {}
        return TraceSummary(
            source=self.source,
            num_events=len(self.events),
            schema_version=manifest.get("schema_version"),
            seed=manifest.get("seed"),
            rounds_stage1=rounds_stage1,
            rounds_transfer=rounds_transfer,
            rounds_invitation=rounds_invitation,
            per_seller=per_seller,
            welfare_trajectory=tuple(welfare),
            messages_sent=sent,
            messages_delivered=delivered,
            messages_dropped=dropped,
            drop_reasons=drop_reasons,
            slots=slots,
            spans=tuple(span_table(self.events)),
        )


def format_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the CLI's human-readable text."""
    lines = [f"trace: {summary.source} ({summary.num_events} events)"]
    if summary.schema_version is not None:
        seed = "-" if summary.seed is None else summary.seed
        lines.append(
            f"manifest: schema v{summary.schema_version}, seed {seed}"
        )
    else:
        lines.append("manifest: (none)")
    lines.append(
        f"rounds: {summary.rounds_to_convergence} to convergence "
        f"(stage1 {summary.rounds_stage1}, transfer {summary.rounds_transfer}, "
        f"invitation {summary.rounds_invitation})"
    )
    if summary.slots is not None:
        lines.append(f"slots: {summary.slots}")
    for channel in sorted(summary.per_seller):
        stats = summary.per_seller[channel]
        lines.append(
            f"  seller {channel}: proposals={stats['proposals']} "
            f"applications={stats['applications']} "
            f"accepted={stats['accepted']} rejected={stats['rejected']} "
            f"evicted={stats['evicted']}"
        )
    if summary.welfare_trajectory:
        steps = " -> ".join(
            f"{label}={value:g}" for label, value in summary.welfare_trajectory
        )
        lines.append(f"welfare: {steps}")
    if summary.messages_sent or summary.messages_dropped:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(summary.drop_reasons.items())
        )
        lines.append(
            f"messages: sent={summary.messages_sent} "
            f"delivered={summary.messages_delivered} "
            f"dropped={summary.messages_dropped}"
            + (f" ({reasons})" if reasons else "")
        )
    if summary.spans:
        lines.append("spans:")
        lines.append(format_span_table(summary.spans))
    return "\n".join(lines)
