"""TraceReader: parsing, manifest validation, and run summaries.

The committed golden trace (``tests/data/golden_two_stage_trace.jsonl``)
doubles as the reference input here: it predates the manifest, so it
also pins the rule that manifest-less traces stay readable.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.core.trace import StageOneRound, TransferRound
from repro.errors import ObservabilityError
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    JsonlEventSink,
    Recorder,
    build_manifest,
)
from repro.trace import TraceReader, format_summary, load_events

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_two_stage_trace.jsonl"
)


class TestLoadEvents:
    def test_reads_file_by_path(self):
        events = load_events(GOLDEN_PATH)
        assert len(events) == 9
        assert events[0]["event"] == "two_stage.start"
        assert events[-1]["event"] == "two_stage.result"

    def test_reads_iterable_of_lines(self):
        events = load_events(['{"event": "a"}', "", '{"event": "b", "n": 1}'])
        assert events == [{"event": "a"}, {"event": "b", "n": 1}]

    def test_bad_json_reports_line_number(self):
        with pytest.raises(ObservabilityError, match=r"<stream>:2:"):
            load_events(['{"event": "ok"}', "{not json"])

    def test_non_event_object_rejected(self):
        with pytest.raises(ObservabilityError, match=r"<stream>:1:"):
            load_events(['{"no_event_key": true}'])
        with pytest.raises(ObservabilityError, match=r"<stream>:1:"):
            load_events(["[1, 2, 3]"])


class TestManifestValidation:
    def _trace_with_manifest(self, **overrides) -> list:
        manifest = build_manifest(seed=7)
        manifest.update(overrides)
        buffer = io.StringIO()
        sink = JsonlEventSink(buffer, manifest=manifest)
        sink.emit({"event": "two_stage.start", "buyers": 3, "channels": 2})
        sink.close()
        return load_events(buffer.getvalue().splitlines())

    def test_round_trip_through_jsonl_sink(self):
        reader = TraceReader(self._trace_with_manifest())
        assert reader.manifest is not None
        assert reader.manifest["seed"] == 7
        assert reader.manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert reader.summary().seed == 7

    def test_manifest_optional(self):
        reader = TraceReader.from_file(GOLDEN_PATH)
        assert reader.manifest is None
        assert reader.summary().seed is None

    def test_future_schema_rejected(self):
        events = self._trace_with_manifest(
            schema_version=MANIFEST_SCHEMA_VERSION + 1
        )
        with pytest.raises(ObservabilityError, match="schema_version"):
            TraceReader(events)

    def test_non_integer_schema_rejected(self):
        events = self._trace_with_manifest(schema_version="1")
        with pytest.raises(ObservabilityError, match="schema_version"):
            TraceReader(events)

    def test_duplicate_manifest_rejected(self):
        events = self._trace_with_manifest()
        events.append(dict(events[0]))
        with pytest.raises(ObservabilityError, match="manifest"):
            TraceReader(events)


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def reader(self):
        return TraceReader.from_file(GOLDEN_PATH)

    def test_rounds_reconstruct_via_codec(self, reader):
        rounds = reader.rounds()
        assert len(rounds) == 7
        assert isinstance(rounds[0], StageOneRound)
        assert sum(isinstance(r, StageOneRound) for r in rounds) == 4
        assert sum(isinstance(r, TransferRound) for r in rounds) == 3

    def test_summary_round_counts(self, reader):
        summary = reader.summary()
        assert summary.num_events == 9
        assert summary.rounds_stage1 == 4
        assert summary.rounds_transfer == 3
        assert summary.rounds_invitation == 0
        assert summary.rounds_to_convergence == 7

    def test_summary_welfare_trajectory_matches_result_event(self, reader):
        result = reader.of_type("two_stage.result")[0]
        trajectory = dict(reader.summary().welfare_trajectory)
        assert trajectory["stage1"] == result["welfare_stage1"]
        assert trajectory["phase2"] == result["welfare_phase2"]
        assert trajectory["phase2"] >= trajectory["stage1"]

    def test_summary_per_seller_accounting_matches_rounds(self, reader):
        summary = reader.summary()
        proposals = sum(
            len(targets)
            for r in reader.rounds()
            if isinstance(r, StageOneRound)
            for targets in r.proposals.values()
        )
        assert sum(s["proposals"] for s in summary.per_seller.values()) == proposals

    def test_summary_no_messages_in_core_trace(self, reader):
        summary = reader.summary()
        assert summary.messages_sent == 0
        assert summary.messages_delivered == 0
        assert summary.messages_dropped == 0

    def test_format_summary_renders(self, reader):
        text = format_summary(reader.summary())
        assert "rounds: 7 to convergence" in text
        assert "golden_two_stage_trace.jsonl" in text


class TestSummaryFromSyntheticEvents:
    def test_message_accounting_and_drop_reasons(self):
        events = [
            {"event": "msg.sent", "id": 1, "trace": 1, "parent": None,
             "slot": 0, "src": "a", "dst": "b", "type": "Note"},
            {"event": "msg.delivered", "id": 1, "slot": 1, "dst": "b"},
            {"event": "msg.sent", "id": 2, "trace": 2, "parent": None,
             "slot": 1, "src": "a", "dst": "b", "type": "Note"},
            {"event": "msg.dropped", "id": 2, "slot": 1, "reason": "network"},
            {"event": "sim.slot", "slot": 2},
        ]
        events.append(
            {"event": "distributed.run_end", "slots": 3, "social_welfare": 1.5}
        )
        summary = TraceReader(events).summary()
        assert summary.messages_sent == 2
        assert summary.messages_delivered == 1
        assert summary.messages_dropped == 1
        assert summary.drop_reasons == {"network": 1}
        assert summary.slots == 3
        assert ("final", 1.5) in summary.welfare_trajectory

    def test_stage2_accounting_credits_gaining_seller(self):
        # Accepted entries are (buyer, from_channel, to_channel) triples
        # and invitation declines are (channel, buyer) pairs -- the toy
        # run's trace exercises both, so the unpacking shapes matter.
        events = [
            {"event": "stage2.transfer_round", "round": 1,
             "applications": {"2": [0]},
             "accepted": [[0, -1, 2]], "rejected": [[3, 2]]},
            {"event": "stage2.invitation_round", "round": 1,
             "invitations": [[1, 4]],
             "accepted": [[4, 0, 1]], "declined": [[1, 5]]},
        ]
        summary = TraceReader(events).summary()
        assert summary.per_seller[2]["applications"] == 1
        assert summary.per_seller[2]["accepted"] == 1
        assert summary.per_seller[2]["rejected"] == 1
        assert summary.per_seller[1]["accepted"] == 1
        assert summary.per_seller[1]["rejected"] == 1

    def test_mwis_share_from_spans(self):
        # Finish order, as traces store spans: the child before its root.
        events = [
            {"event": "span", "name": "stage1.mwis", "depth": 1,
             "wall_s": 0.5, "cpu_s": 0.5},
            {"event": "span", "name": "two_stage", "depth": 0,
             "wall_s": 2.0, "cpu_s": 2.0},
        ]
        summary = TraceReader(events).summary()
        assert [row["name"] for row in summary.spans] == [
            "two_stage", "stage1.mwis",
        ]
        mwis = [line for line in format_summary(summary).splitlines()
                if line.startswith("stage1.mwis ")]
        assert [line.split()[-1] for line in mwis] == ["25.0%"]

    def test_trace_without_spans_prints_no_table(self):
        summary = TraceReader.from_file(GOLDEN_PATH).summary()
        assert summary.spans == ()
        assert "spans:" not in format_summary(summary)

    def test_json_round_trip_of_summary_fields(self):
        # Every summary field must be JSON-safe (CLI prints it; exporters
        # may serialise it): tuples/dicts of primitives only.
        summary = TraceReader.from_file(GOLDEN_PATH).summary()
        json.dumps(
            {
                "rounds": summary.rounds_to_convergence,
                "per_seller": summary.per_seller,
                "welfare": summary.welfare_trajectory,
                "drop_reasons": summary.drop_reasons,
            }
        )
