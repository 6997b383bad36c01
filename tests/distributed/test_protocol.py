"""End-to-end tests of the message-level protocol (Section IV).

The ``SPECTRUM_CHAOS_SEED`` environment variable offsets the simulator
seeds of the message-reordering grid, as in ``test_chaos.py``; CI runs
that grid under the same seed families.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.stability import is_individually_rational, is_nash_stable
from repro.core.two_stage import run_two_stage
from repro.distributed.network import DelayedNetwork
from repro.distributed.protocol import run_distributed_matching
from repro.distributed.transition import (
    BuyerTransitionRule,
    SellerTransitionRule,
    TransitionPolicy,
    adaptive_policy,
    default_policy,
    neighbor_rule_policy,
)
from repro.errors import SpectrumMatchingError
from repro.obs import ListEventSink, Recorder
from repro.workloads.scenarios import (
    counterexample_market,
    paper_simulation_market,
    toy_example_market,
)

ALL_POLICIES = [default_policy(), adaptive_policy(), neighbor_rule_policy()]

#: CI offsets this to run the reordering grid under several seed families.
BASE_SEED = int(os.environ.get("SPECTRUM_CHAOS_SEED", "0"))

#: (policy, delay bounds, seeds per market): random per-message delays
#: reorder messages between every pair of agents.
REORDERING = [
    ("default", (1, 3), 20),
    ("default", (0, 2), 20),
    ("adaptive", (1, 3), 10),
    ("adaptive", (1, 5), 10),
    ("neighbor", (1, 3), 10),
    ("neighbor", (1, 5), 10),
]
POLICIES = {
    "default": default_policy,
    "adaptive": adaptive_policy,
    "neighbor": neighbor_rule_policy,
}


def assert_sound_under_reordering(market, policy, delays, seed):
    """Converged, the strict extraction passed (each buyer believes what
    the sellers record, else ``ProtocolError``), interference-free, IR."""
    result = run_distributed_matching(
        market, policy=policy, network=DelayedNetwork(*delays), seed=seed
    )
    assert result.status == "converged"
    assert result.matching.is_interference_free(market.interference)
    assert is_individually_rational(market, result.matching)


class TestToyExample:
    def test_default_rule_reaches_paper_outcome(self):
        market = toy_example_market()
        result = run_distributed_matching(market, policy=default_policy())
        assert result.social_welfare == pytest.approx(30.0)
        assert result.matching.coalition(0) == frozenset({1, 3})
        assert result.matching.coalition(1) == frozenset({2})
        assert result.matching.coalition(2) == frozenset({0, 4})

    def test_default_rule_pays_the_mn_wait(self):
        """The paper: the default rule needs ~MN + M + N slots (23 here)."""
        market = toy_example_market()
        result = run_distributed_matching(market, policy=default_policy())
        assert result.slots >= market.num_buyers * market.num_channels

    def test_adaptive_rules_finish_much_earlier(self):
        market = toy_example_market()
        default = run_distributed_matching(market, policy=default_policy())
        adaptive = run_distributed_matching(market, policy=adaptive_policy())
        assert adaptive.slots < default.slots
        assert adaptive.social_welfare == pytest.approx(default.social_welfare)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_all_policies_reach_welfare_30(self, policy):
        market = toy_example_market()
        result = run_distributed_matching(market, policy=policy)
        assert result.social_welfare == pytest.approx(30.0)


class TestEquivalenceWithCentralized:
    """With the default rule the async run must replay Algorithm 1+2."""

    @pytest.mark.parametrize("seed", range(8))
    def test_default_rule_equals_centralized(self, seed):
        market = paper_simulation_market(
            14, 4, np.random.default_rng([201, seed])
        )
        centralized = run_two_stage(market, record_trace=False)
        distributed = run_distributed_matching(market, policy=default_policy())
        assert distributed.matching == centralized.matching

    def test_counterexample_market_equivalence(self):
        market = counterexample_market()
        centralized = run_two_stage(market)
        distributed = run_distributed_matching(market, policy=default_policy())
        assert distributed.matching == centralized.matching


class TestAdaptivePolicies:
    @pytest.mark.parametrize("seed", range(6))
    def test_outcome_feasible_and_rational(self, seed):
        market = paper_simulation_market(
            16, 4, np.random.default_rng([202, seed])
        )
        result = run_distributed_matching(market, policy=adaptive_policy())
        assert result.matching.is_interference_free(market.interference)
        assert is_individually_rational(market, result.matching)

    @pytest.mark.parametrize("seed", range(6))
    def test_adaptive_never_slower_than_default(self, seed):
        market = paper_simulation_market(
            12, 3, np.random.default_rng([203, seed])
        )
        default = run_distributed_matching(market, policy=default_policy())
        adaptive = run_distributed_matching(market, policy=adaptive_policy())
        assert adaptive.slots <= default.slots

    def test_conservative_threshold_recovers_centralized_result(self):
        market = paper_simulation_market(10, 3, np.random.default_rng(204))
        centralized = run_two_stage(market, record_trace=False)
        # A tiny threshold means "almost never transition early": the
        # default slot fallback fires and the outcome matches exactly.
        policy = adaptive_policy(buyer_threshold=1e-9, seller_threshold=1e-9)
        result = run_distributed_matching(market, policy=policy)
        assert result.matching == centralized.matching

    def test_aggressive_threshold_is_still_safe(self):
        market = paper_simulation_market(15, 4, np.random.default_rng(205))
        policy = adaptive_policy(buyer_threshold=0.9, seller_threshold=0.9)
        result = run_distributed_matching(market, policy=policy)
        assert result.matching.is_interference_free(market.interference)
        assert is_individually_rational(market, result.matching)


class TestMessageDelays:
    @pytest.mark.parametrize("delay", [1, 2])
    def test_fixed_delays_preserve_outcome_welfare(self, delay):
        market = toy_example_market()
        baseline = run_distributed_matching(market, policy=default_policy())
        delayed = run_distributed_matching(
            market,
            policy=default_policy(),
            network=DelayedNetwork(delay, delay),
        )
        assert delayed.matching.is_interference_free(market.interference)
        # Fixed uniform delays only stretch time; they cannot reorder the
        # lockstep rounds, so the outcome welfare is unchanged.
        assert delayed.social_welfare == pytest.approx(baseline.social_welfare)
        assert delayed.slots >= baseline.slots

    @pytest.mark.parametrize("num_buyers", [30, 60])
    @pytest.mark.parametrize(
        "policy, delays, seeds",
        REORDERING,
        ids=[f"{p}-delay{lo}-{hi}" for p, (lo, hi), _ in REORDERING],
    )
    def test_reordering_grid(self, policy, delays, seeds, num_buyers):
        market = paper_simulation_market(
            num_buyers, 4, np.random.default_rng([5, 1, num_buyers])
        )
        for seed in range(seeds):
            assert_sound_under_reordering(
                market, POLICIES[policy](), delays, 100 * BASE_SEED + seed
            )

    def test_reordering_pinned_case(self):
        """An eviction overtook the admission it followed: the stale
        admission used to re-match the buyer (``ProtocolError`` in the
        strict extraction)."""
        market = paper_simulation_market(
            60, 4, np.random.default_rng([7, 5, 60])
        )
        assert_sound_under_reordering(market, adaptive_policy(), (1, 5), 5)


class TestAccounting:
    def test_message_counters_consistent(self):
        market = toy_example_market()
        result = run_distributed_matching(market, policy=default_policy())
        assert result.messages_delivered == result.messages_sent
        assert result.messages_dropped == 0

    def test_nash_stability_with_default_rule(self):
        market = paper_simulation_market(14, 4, np.random.default_rng(207))
        result = run_distributed_matching(market, policy=default_policy())
        assert is_nash_stable(market, result.matching)

    def test_divergent_views_of_a_fault_free_run_raise(self):
        """A fault-free run that quiesced does not reconcile: the first
        buyer the sellers' waitlists disagree with raises, named with her
        belief and the sellers' claims."""
        from repro.distributed.protocol import build_distributed_simulation
        from repro.errors import ProtocolError

        sim = build_distributed_simulation(
            toy_example_market(), policy=default_policy()
        )
        slots = sim.run()
        assert sim.buyers[2].current_channel == 1
        sim.sellers[0].waitlist.add(2)
        with pytest.raises(ProtocolError) as info:
            sim.finalize(slots)
        assert str(info.value) == (
            "buyer 2 believes she is matched to 1 but sellers record [0, 1]"
        )


class TestPolicyValidation:
    def test_bad_thresholds_rejected(self):
        with pytest.raises(SpectrumMatchingError):
            TransitionPolicy(buyer_threshold=0.0)
        with pytest.raises(SpectrumMatchingError):
            TransitionPolicy(seller_threshold=1.0)
        with pytest.raises(SpectrumMatchingError):
            TransitionPolicy(phase1_grace_slots=-1)

    def test_policy_constructors(self):
        assert default_policy().buyer_rule is BuyerTransitionRule.DEFAULT
        assert (
            adaptive_policy().seller_rule
            is SellerTransitionRule.BETTER_PROPOSAL_PROBABILITY
        )
        assert (
            neighbor_rule_policy().buyer_rule
            is BuyerTransitionRule.NEIGHBORS_PROPOSED
        )


class TestWarmStart:
    """Warm-seeded runs: the protocol as a Stage-II-only re-matcher."""

    def test_toy_example_from_stage_one_seed(self):
        from repro.core.deferred_acceptance import deferred_acceptance
        from repro.core.transfer_invitation import transfer_and_invitation

        market = toy_example_market()
        stage_one = deferred_acceptance(market)
        centralized = transfer_and_invitation(
            market, stage_one.matching, record_trace=False
        )
        warm = run_distributed_matching(
            market, policy=default_policy(), initial_matching=stage_one.matching
        )
        assert warm.matching == centralized.matching
        assert warm.social_welfare == pytest.approx(30.0)

    def test_warm_run_is_much_shorter_than_cold(self):
        from repro.core.deferred_acceptance import deferred_acceptance

        market = toy_example_market()
        stage_one = deferred_acceptance(market)
        cold = run_distributed_matching(market, policy=default_policy())
        warm = run_distributed_matching(
            market, policy=default_policy(), initial_matching=stage_one.matching
        )
        assert warm.slots < cold.slots / 2

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_centralized_stage_two(self, seed):
        from repro.core.deferred_acceptance import deferred_acceptance
        from repro.core.transfer_invitation import transfer_and_invitation

        market = paper_simulation_market(
            18, 4, np.random.default_rng([210, seed])
        )
        stage_one = deferred_acceptance(market)
        centralized = transfer_and_invitation(
            market, stage_one.matching, record_trace=False
        )
        warm = run_distributed_matching(
            market, policy=default_policy(), initial_matching=stage_one.matching
        )
        assert warm.matching == centralized.matching

    def test_infeasible_seed_rejected(self):
        from repro.core.matching import Matching
        from repro.errors import ProtocolError

        market = toy_example_market()
        bad = Matching(market.num_channels, market.num_buyers)
        bad.match(0, 0)
        bad.match(1, 0)  # buyers 1-2 interfere on channel a
        with pytest.raises(ProtocolError):
            run_distributed_matching(
                market, policy=default_policy(), initial_matching=bad
            )

    def test_wrong_dimensions_rejected(self):
        from repro.core.matching import Matching
        from repro.errors import ProtocolError

        market = toy_example_market()
        wrong = Matching(2, 2)
        with pytest.raises(ProtocolError):
            run_distributed_matching(
                market, policy=default_policy(), initial_matching=wrong
            )

    def test_empty_seed_equals_pure_stage_two(self):
        """Seeding an empty matching = every buyer starts unmatched in
        Stage II: they transfer onto channels directly."""
        from repro.core.matching import Matching
        from repro.core.transfer_invitation import transfer_and_invitation

        market = paper_simulation_market(10, 3, np.random.default_rng(211))
        empty = Matching(market.num_channels, market.num_buyers)
        centralized = transfer_and_invitation(market, empty, record_trace=False)
        warm = run_distributed_matching(
            market, policy=default_policy(), initial_matching=empty
        )
        assert warm.matching == centralized.matching


def traced_run(market, **kwargs):
    """One run with a live event sink: (result, its event stream)."""
    recorder = Recorder(events=ListEventSink())
    result = run_distributed_matching(market, recorder=recorder, **kwargs)
    return result, recorder.events.events


#: ``render_protocol_timeline`` of the toy market under the adaptive rules,
#: as the in-memory per-message trace rendered it before the timeline read
#: the kernel's ``msg.*`` events.
TOY_ADAPTIVE_TIMELINE = """\
slot  msgs  breakdown
   0    10  ############ Proposex5 Stage1Decisionx5
   1     6  #######      Proposex2 Stage1Decisionx4
   2     7  ########     Proposex1 SellerStageNotifyx2 Stage1Decisionx2 TransferApplyx2
   3     6  #######      SellerStageNotifyx1 TransferApplyx2 TransferVerdictx3
   4     5  ######       Leavex1 TransferAnswerx1 TransferApplyx1 TransferVerdictx2
   5     3  ###          TransferAnswerx1 TransferApplyx1 TransferVerdictx1
   6     1  #            TransferAnswerx1"""


class TestEventTracing:
    def test_tracing_does_not_change_the_run(self):
        market = toy_example_market()
        plain = run_distributed_matching(market, policy=default_policy())
        traced, _ = traced_run(market, policy=default_policy())
        assert traced == plain

    def test_one_msg_sent_per_send(self):
        market = toy_example_market()
        result, events = traced_run(market, policy=default_policy())
        sent = [event for event in events if event["event"] == "msg.sent"]
        assert len(sent) == result.messages_sent
        types = {event["type"] for event in sent}
        assert "Propose" in types
        assert "TransferApply" in types
        assert not [e for e in events if e["event"] == "msg.dropped"]

    def test_network_drops_are_traced_on_lossy_networks(self):
        from repro.distributed.network import LossyNetwork

        market = toy_example_market()
        result, events = traced_run(
            market,
            policy=default_policy(),
            network=LossyNetwork(0.3),
            seed=3,
            reliable_transport=True,
            max_slots=50_000,
        )
        dropped = [
            event for event in events
            if event["event"] == "msg.dropped" and event["reason"] == "network"
        ]
        assert len(dropped) == result.messages_dropped
        assert dropped  # 30% loss must drop something

    def test_timeline_rendering(self):
        from repro.analysis.visualization import render_protocol_timeline

        _, events = traced_run(toy_example_market(), policy=adaptive_policy())
        assert render_protocol_timeline(events) == TOY_ADAPTIVE_TIMELINE

    def test_timeline_from_a_trace_file(self, tmp_path):
        from repro.analysis.visualization import render_protocol_timeline
        from repro.obs import JsonlEventSink
        from repro.trace.reader import load_events

        path = str(tmp_path / "toy.jsonl")
        with Recorder(events=JsonlEventSink(path)) as recorder:
            run_distributed_matching(
                toy_example_market(), policy=adaptive_policy(),
                recorder=recorder,
            )
        timeline = render_protocol_timeline(load_events(path))
        assert timeline == TOY_ADAPTIVE_TIMELINE

    def test_timeline_flags_send_drops(self):
        from repro.analysis.visualization import render_protocol_timeline
        from repro.distributed.network import LossyNetwork

        result, events = traced_run(
            toy_example_market(),
            policy=default_policy(),
            network=LossyNetwork(0.3),
            seed=3,
            reliable_transport=True,
            max_slots=50_000,
        )
        art = render_protocol_timeline(events, max_rows=10 ** 6)
        flagged = sum(
            int(entry.rsplit("x", 1)[1])
            for line in art.splitlines()[1:]
            for entry in line.split()[3:]
            if "!x" in entry
        )
        assert flagged == result.messages_dropped

    def test_timeline_flags_crashed_destinations_not_purges(self):
        from repro.analysis.visualization import render_protocol_timeline

        def sent(msg_id, slot, kind):
            return {"event": "msg.sent", "id": msg_id, "slot": slot,
                    "type": kind}

        def dropped(msg_id, slot, reason):
            return {"event": "msg.dropped", "id": msg_id, "slot": slot,
                    "reason": reason}

        events = [
            sent(0, 1, "Propose"),
            dropped(0, 1, "crashed_destination"),
            sent(1, 1, "Propose"),
            dropped(1, 3, "crash_purge"),
            # A second run in the same trace numbers its messages afresh.
            sent(0, 2, "Leave"),
        ]
        assert render_protocol_timeline(events).splitlines()[1:] == [
            "   1     2  ############ Proposex1 Propose!x1",
            "   2     1  ######       Leavex1",
        ]

    def test_timeline_subsampling(self):
        from repro.analysis.visualization import render_protocol_timeline

        market = paper_simulation_market(15, 4, np.random.default_rng(208))
        _, events = traced_run(market, policy=default_policy())
        art = render_protocol_timeline(events, max_rows=5)
        # header + at most 5 rows
        assert len(art.splitlines()) <= 6

    def test_timeline_without_events(self):
        from repro.analysis.visualization import render_protocol_timeline

        assert "no events" in render_protocol_timeline(())
