"""Recorder facade, ambient installation, and pipeline instrumentation.

The last class is the null-backend guarantee the observability layer is
built around: with no recorder installed (the default), the pipeline and
the simulator produce results identical to an instrumented run, and the
null backends record nothing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.two_stage import run_two_stage
from repro.distributed.buyer_agent import BuyerAgent
from repro.distributed.protocol import run_distributed_matching
from repro.distributed.seller_agent import SellerAgent
from repro.distributed.simulator import Agent
from repro.distributed.transport import ReliableAgent
from repro.dynamic.generator import DynamicMarketGenerator
from repro.dynamic.online import OnlineMatcher, RematchStrategy
from repro.obs import (
    NULL_RECORDER,
    JsonlEventSink,
    ListEventSink,
    MetricsRegistry,
    Recorder,
    SpanTracer,
    get_recorder,
    resolve_recorder,
    use_recorder,
)


def live_recorder() -> Recorder:
    return Recorder(
        events=ListEventSink(), metrics=MetricsRegistry(), spans=SpanTracer()
    )


class TestRecorderFacade:
    def test_default_recorder_is_fully_null(self):
        recorder = Recorder()
        assert recorder.enabled is False
        assert recorder.events.enabled is False
        assert recorder.metrics.enabled is False
        assert recorder.spans.enabled is False

    def test_enabled_with_any_live_backend(self):
        assert Recorder(events=ListEventSink()).enabled
        assert Recorder(metrics=MetricsRegistry()).enabled
        assert Recorder(spans=SpanTracer()).enabled

    def test_emit_adds_event_type(self):
        recorder = Recorder(events=ListEventSink())
        recorder.emit("my.event", value=3)
        assert recorder.events.events == [{"event": "my.event", "value": 3}]

    def test_spans_mirrored_into_event_stream(self):
        recorder = live_recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        names = [e["name"] for e in recorder.events.of_type("span")]
        assert names == ["inner", "outer"]

    def test_ambient_install_and_reset(self):
        assert get_recorder() is NULL_RECORDER
        recorder = live_recorder()
        with use_recorder(recorder):
            assert get_recorder() is recorder
            assert resolve_recorder(None) is recorder
        assert get_recorder() is NULL_RECORDER

    def test_explicit_recorder_wins_over_ambient(self):
        ambient, explicit = live_recorder(), live_recorder()
        with use_recorder(ambient):
            assert resolve_recorder(explicit) is explicit


class TestPipelineInstrumentation:
    def test_round_events_match_trace(self, market_factory):
        market = market_factory(num_buyers=16, num_channels=4, seed=5)
        recorder = live_recorder()
        result = run_two_stage(market, recorder=recorder)
        sink = recorder.events
        assert len(sink.of_type("stage1.round")) == result.rounds_stage1
        assert (
            len(sink.of_type("stage2.transfer_round")) == result.rounds_phase1
        )
        assert (
            len(sink.of_type("stage2.invitation_round"))
            == result.rounds_phase2
        )

    def test_rounds_emitted_even_without_trace_recording(self, market_factory):
        market = market_factory(num_buyers=16, num_channels=4, seed=5)
        recorder = live_recorder()
        result = run_two_stage(market, record_trace=False, recorder=recorder)
        assert result.stage_one.rounds == ()
        assert (
            len(recorder.events.of_type("stage1.round"))
            == result.rounds_stage1
        )

    def test_span_hierarchy(self, toy_market):
        recorder = live_recorder()
        run_two_stage(toy_market, recorder=recorder)
        roots = [r.name for r in recorder.spans.records if r.depth == 0]
        assert roots == ["two_stage"]
        depth1 = {r.name for r in recorder.spans.records if r.depth == 1}
        assert depth1 == {"stage1", "stage2"}
        depth2 = {r.name for r in recorder.spans.records if r.depth == 2}
        assert {"stage2.transfer", "stage2.invitation"} <= depth2
        assert "stage1.mwis" in depth2

    def test_counters_match_result(self, market_factory):
        market = market_factory(num_buyers=20, num_channels=5, seed=2)
        recorder = live_recorder()
        result = run_two_stage(market, recorder=recorder)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["stage1.rounds"] == result.rounds_stage1
        assert counters["stage1.proposals"] == result.stage_one.total_proposals
        assert counters["stage2.transfer_rounds"] == result.rounds_phase1
        assert counters["stage2.invitation_rounds"] == result.rounds_phase2
        assert counters["two_stage.runs"] == 1

    def test_mwis_timer_counts_solves(self, toy_market):
        recorder = live_recorder()
        run_two_stage(toy_market, recorder=recorder)
        timer = recorder.metrics.timer("stage1.mwis_solve_s")
        mwis_spans = [
            r for r in recorder.spans.records if r.name == "stage1.mwis"
        ]
        assert timer.count == len(mwis_spans) > 0

    def test_simulator_slot_events(self, market_factory, monkeypatch):
        market = market_factory(num_buyers=10, num_channels=3, seed=1)
        recorder = live_recorder()
        run = run_distributed_matching(market, recorder=recorder)
        slot_events = recorder.events.of_type("sim.slot")
        assert len(slot_events) == run.slots
        assert sum(e["sent"] for e in slot_events) == run.messages_sent
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["sim.slots"] == run.slots
        assert counters["sim.messages_sent"] == run.messages_sent
        assert counters["sim.messages_delivered"] == run.messages_delivered
        done = recorder.events.of_type("sim.done")
        assert len(done) == 1 and done[0]["slots"] == run.slots
        hist = recorder.metrics.histogram("sim.agent_step_s")
        agents = market.num_buyers + market.num_channels
        # The histogram observes executed steps: the event-driven kernel
        # skips idle agents, while polling every agent in every slot
        # (the base ``Agent.next_wake``) executes slots x agents steps.
        assert 0 < hist.count < run.slots * agents
        for cls in (BuyerAgent, SellerAgent, ReliableAgent):
            monkeypatch.setattr(cls, "next_wake", Agent.next_wake)
        polling = live_recorder()
        polled = run_distributed_matching(market, recorder=polling)
        polled_hist = polling.metrics.histogram("sim.agent_step_s")
        assert polled_hist.count == polled.slots * agents

    def test_distributed_lifecycle_events(self, market_factory):
        market = market_factory(num_buyers=8, num_channels=3, seed=3)
        recorder = live_recorder()
        with use_recorder(recorder):
            run_distributed_matching(market)
        assert len(recorder.events.of_type("distributed.run_start")) == 1
        end = recorder.events.of_type("distributed.run_end")
        assert len(end) == 1 and end[0]["slots"] > 0

    def test_dynamic_epoch_events(self):
        generator = DynamicMarketGenerator(
            num_channels=3,
            initial_buyers=10,
            arrival_rate=2.0,
            departure_prob=0.1,
            drift_sigma=0.05,
            rng=np.random.default_rng(0),
        )
        recorder = live_recorder()
        matcher = OnlineMatcher(RematchStrategy.WARM, recorder=recorder)
        outcomes = matcher.run(generator.epochs(4))
        events = recorder.events.of_type("dynamic.epoch")
        assert len(events) == len(outcomes) == 4
        assert [e["epoch"] for e in events] == [o.epoch_index for o in outcomes]
        assert recorder.metrics.snapshot()["counters"]["dynamic.epochs"] == 4

    def test_jsonl_trace_of_full_run_is_valid(self, tmp_path, toy_market):
        path = tmp_path / "run.jsonl"
        recorder = Recorder(events=JsonlEventSink(str(path)))
        with recorder:
            run_two_stage(toy_market, recorder=recorder)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)


class TestNullBackendParity:
    """Observability off (the default) must not change any result."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_two_stage_identical_with_and_without_recorder(
        self, market_factory, seed
    ):
        market = market_factory(num_buyers=24, num_channels=5, seed=seed)
        plain = run_two_stage(market)
        observed = run_two_stage(market, recorder=live_recorder())
        assert plain == observed

    def test_distributed_identical_with_and_without_recorder(
        self, market_factory
    ):
        market = market_factory(num_buyers=12, num_channels=4, seed=9)
        plain = run_distributed_matching(market)
        observed = run_distributed_matching(market, recorder=live_recorder())
        assert plain.matching == observed.matching
        assert plain.slots == observed.slots
        assert plain.messages_sent == observed.messages_sent
        assert plain.messages_delivered == observed.messages_delivered
        assert plain.social_welfare == observed.social_welfare

    def test_default_path_records_nothing(self, toy_market):
        before_events = NULL_RECORDER.events.enabled
        result = run_two_stage(toy_market)
        assert result.social_welfare == 30.0
        assert NULL_RECORDER.events.enabled is before_events is False
        assert NULL_RECORDER.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }
        assert NULL_RECORDER.spans.records == []
