"""White-box tests of the buyer/seller agent state machines.

The protocol tests exercise agents end to end; these drive single agents
with hand-crafted inboxes to pin down each transition and error path.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.core.market import SpectrumMarket
from repro.distributed.buyer_agent import BuyerAgent, buyer_agent_id, seller_agent_id
from repro.distributed.messages import (
    Invite,
    InviteAnswer,
    Leave,
    Propose,
    SellerStageNotify,
    Stage1Decision,
    TransferAnswer,
    TransferApply,
    TransferVerdict,
)
from repro.distributed.seller_agent import SellerAgent
from repro.distributed.simulator import SlotContext
from repro.distributed.transition import adaptive_policy, default_policy
from repro.errors import ProtocolError
from repro.interference.generators import interference_map_from_edge_lists


def make_market():
    """2 channels, 3 buyers; buyers 0-1 interfere on channel 0."""
    utilities = np.array(
        [
            [5.0, 3.0],
            [6.0, 1.0],
            [0.0, 2.0],
        ]
    )
    imap = interference_map_from_edge_lists(3, [[(0, 1)], []])
    return SpectrumMarket(utilities, imap)


class Recorder:
    """Capture agent sends as (destination, message) pairs."""

    def __init__(self):
        self.sent: List[Tuple[str, object]] = []

    def ctx(self, now: int) -> SlotContext:
        return SlotContext(
            now=now,
            rng=np.random.default_rng(0),
            _send=lambda dst, msg: self.sent.append((dst, msg)),
        )

    def of_type(self, message_type):
        return [(d, m) for d, m in self.sent if isinstance(m, message_type)]


def decision(channel, coalition, proposers=None):
    """Seller ``channel``'s Stage-I decision for ``coalition``."""
    coalition = frozenset(coalition)
    return Stage1Decision(
        seller_agent_id(channel),
        channel,
        coalition,
        frozenset(coalition if proposers is None else proposers),
    )


def offer(channel, offered=True):
    return TransferVerdict(seller_agent_id(channel), channel, offered)


def invite_answer(buyer, accept):
    return InviteAnswer(buyer_agent_id(buyer), buyer, accept)


class TestBuyerStageOne:
    def test_first_slot_proposes_to_best_channel(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        proposals = recorder.of_type(Propose)
        assert len(proposals) == 1
        assert proposals[0][0] == seller_agent_id(0)  # ch0 worth 5 > 3

    def test_stop_and_wait_on_outstanding_proposal(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([], recorder.ctx(1))  # no reply yet -> no second proposal
        assert len(recorder.of_type(Propose)) == 1

    def test_rejection_moves_down_the_list(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([decision(0, {1})], recorder.ctx(1))
        proposals = recorder.of_type(Propose)
        assert len(proposals) == 2
        assert proposals[1][0] == seller_agent_id(1)

    def test_admission_marks_matched(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([decision(0, {0}, {0, 1})], recorder.ctx(1))
        assert buyer.current_channel == 0
        assert buyer.current_utility() == 5.0

    def test_proposer_digest_is_merged(self):
        """The digest is cumulative: an older, smaller one adds nothing
        and removes nothing."""
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step(
            [decision(0, {0}, {0, 1}), decision(0, {0}, {0})], recorder.ctx(1)
        )
        assert buyer.snapshot()["proposers_at_current"] == {0, 1}

    def test_eviction_resumes_proposing(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([decision(0, {0})], recorder.ctx(1))
        buyer.step([decision(0, {1})], recorder.ctx(2))
        proposals = recorder.of_type(Propose)
        assert len(proposals) == 2  # went on to channel 1
        assert buyer.current_channel is None

    def test_exhausted_list_enters_stage_two(self):
        buyer = BuyerAgent(2, make_market(), default_policy())  # only ch1 > 0
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([decision(1, set())], recorder.ctx(1))
        assert buyer.stage == 2

    def test_rule_three_notification_transitions(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))
        buyer.step([decision(0, {0})], recorder.ctx(1))
        assert buyer.stage == 1
        buyer.step([SellerStageNotify(seller_agent_id(0), 0)], recorder.ctx(2))
        assert buyer.stage == 2

    def test_unknown_message_raises(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        with pytest.raises(ProtocolError):
            buyer.step([Propose("buyer:9", 9)], recorder.ctx(0))


class TestBuyerStageTwo:
    def make_stage2_buyer(self, matched_channel=1):
        """Buyer 0 matched to her SECOND choice, already in Stage II."""
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))  # proposes ch0
        buyer.step([decision(0, {1})], recorder.ctx(1))  # proposes ch1
        buyer.step([decision(1, {0})], recorder.ctx(2))
        buyer.step([SellerStageNotify(seller_agent_id(1), 1)], recorder.ctx(3))
        assert buyer.stage == 2
        return buyer, recorder

    def test_applies_to_strictly_better_channels(self):
        buyer, recorder = self.make_stage2_buyer()
        applications = recorder.of_type(TransferApply)
        assert len(applications) == 1
        assert applications[0][0] == seller_agent_id(0)  # 5 > 3

    def test_offer_taken_and_old_seller_notified(self):
        buyer, recorder = self.make_stage2_buyer()
        buyer.step([offer(0)], recorder.ctx(4))
        assert buyer.current_channel == 0
        answers = recorder.of_type(TransferAnswer)
        leaves = recorder.of_type(Leave)
        assert [(d, m.take) for d, m in answers] == [(seller_agent_id(0), True)]
        assert leaves and leaves[0][0] == seller_agent_id(1)

    def test_stale_offer_declined(self):
        buyer, recorder = self.make_stage2_buyer()
        # A better invitation lands first...
        buyer.step([Invite(seller_agent_id(0), 0)], recorder.ctx(4))
        assert buyer.current_channel == 0
        # ...then the (now worthless) offer for the same channel arrives.
        # current_channel is already 0, value not strictly better -> decline.
        buyer.step([offer(0)], recorder.ctx(5))
        answers = recorder.of_type(TransferAnswer)
        assert [m.take for _, m in answers] == [False]

    def test_invite_declined_when_not_better(self):
        buyer, recorder = self.make_stage2_buyer()
        # Invite to the channel she already holds the equal of: ch1 (3.0)
        # while matched to ch1 -> not strictly better.
        buyer.step([Invite(seller_agent_id(1), 1)], recorder.ctx(4))
        answers = recorder.of_type(InviteAnswer)
        assert [m.accept for _, m in answers] == [False]

    def test_done_when_nothing_left(self):
        buyer, recorder = self.make_stage2_buyer()
        assert not buyer.is_done()  # application outstanding
        buyer.step([offer(0, offered=False)], recorder.ctx(4))
        assert buyer.is_done()
        assert not recorder.of_type(TransferAnswer)  # a refusal needs none


class TestBuyerStaleDecisions:
    """A buyer acts on a Stage-I decision only from her Stage-I seller:
    the seller she proposed to, for as long as that seller holds her.
    Delayed decisions from any other seller are ignored."""

    def test_eviction_delivered_before_the_admission_it_follows(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))  # proposes ch0
        admission, eviction = decision(0, {0}), decision(0, {1}, {0, 1})
        buyer.step([eviction], recorder.ctx(1))  # overtook the admission
        assert buyer.current_channel is None
        assert recorder.of_type(Propose)[-1][0] == seller_agent_id(1)
        buyer.step([admission], recorder.ctx(2))
        assert buyer.current_channel is None  # stale: ch0 holds her no more
        assert len(recorder.of_type(Propose)) == 2  # still waiting on ch1
        buyer.step([decision(1, {0})], recorder.ctx(3))
        assert buyer.current_channel == 1

    def test_admission_from_a_seller_she_left_by_a_transfer(self):
        market = make_market()
        buyer = BuyerAgent(0, market, default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))  # proposes ch0
        buyer.step([decision(0, {1}, {0, 1})], recorder.ctx(1))  # -> ch1
        buyer.step([decision(1, {0})], recorder.ctx(2))
        # The default rule moves her to Stage II while seller 1 is still
        # in Stage I; she applies to the better ch0 and takes its offer.
        default_slot = market.num_buyers * market.num_channels
        buyer.step([], recorder.ctx(default_slot))
        assert buyer.stage == 2
        buyer.step([offer(0)], recorder.ctx(default_slot + 1))
        assert buyer.current_channel == 0
        # Seller 1 re-admitted her before her Leave arrived.
        buyer.step([decision(1, {0, 2})], recorder.ctx(default_slot + 2))
        assert buyer.current_channel == 0
        assert len(recorder.of_type(Leave)) == 1

    def test_stage1_eviction_after_she_rejoined_that_seller_in_stage2(self):
        buyer = BuyerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        buyer.step([], recorder.ctx(0))  # proposes ch0
        buyer.step([decision(0, {0})], recorder.ctx(1))
        buyer.step([decision(0, {1}, {0, 1})], recorder.ctx(2))  # -> ch1
        buyer.step([decision(1, {0})], recorder.ctx(3))
        buyer.step([SellerStageNotify(seller_agent_id(1), 1)], recorder.ctx(4))
        buyer.step([offer(0)], recorder.ctx(5))  # back on ch0, by transfer
        assert buyer.current_channel == 0
        # A Stage-I eviction seller 0 sent earlier arrives only now.
        buyer.step([decision(0, {1, 2}, {0, 1, 2})], recorder.ctx(6))
        assert buyer.current_channel == 0
        assert buyer.is_done()


class TestSellerStageOne:
    def test_accepts_compatible_proposers(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        seller.step(
            [Propose(buyer_agent_id(0), 0), Propose(buyer_agent_id(2), 2)],
            recorder.ctx(0),
        )
        # 0 and 2 do not interfere on channel 0: both are waitlisted (2's
        # zero price is harmless -- real buyers never propose at price 0).
        assert seller.waitlist == {0, 2}
        decisions = recorder.of_type(Stage1Decision)
        assert [d for d, _ in decisions] == [buyer_agent_id(0), buyer_agent_id(2)]
        assert decisions[0][1].coalition == frozenset({0, 2})

    def test_eviction_on_better_conflicting_proposal(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(0), 0)], recorder.ctx(0))
        seller.step([Propose(buyer_agent_id(1), 1)], recorder.ctx(1))
        assert seller.waitlist == {1}  # 6 beats 5, they interfere
        # One decision tells the displaced buyer 0 and the new member 1.
        second = recorder.of_type(Stage1Decision)[1:]
        assert [d for d, _ in second] == [buyer_agent_id(0), buyer_agent_id(1)]
        assert second[0][1] is second[1][1]
        assert second[0][1].coalition == frozenset({1})

    def test_decision_order_is_displaced_declined_members(self):
        utilities = np.array([[5.0], [6.0], [4.0], [1.0]])
        market = SpectrumMarket(
            utilities,
            interference_map_from_edge_lists(4, [[(0, 1), (2, 3)]]),
        )
        seller = SellerAgent(0, market, default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(0), 0)], recorder.ctx(0))
        seller.step(
            [Propose(buyer_agent_id(j), j) for j in (3, 2, 1)],
            recorder.ctx(1),
        )
        assert seller.waitlist == {1, 2}
        second = recorder.of_type(Stage1Decision)[1:]
        assert [d for d, _ in second] == [
            buyer_agent_id(j) for j in (0, 3, 1, 2)
        ]

    def test_decision_carries_cumulative_proposers(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(0), 0)], recorder.ctx(0))
        seller.step([Propose(buyer_agent_id(1), 1)], recorder.ctx(1))
        last = recorder.of_type(Stage1Decision)[-1][1]
        assert last.proposers_so_far == frozenset({0, 1})

    def test_applications_queue_until_transition(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        seller.step([TransferApply(buyer_agent_id(2), 2)], recorder.ctx(0))
        # Still Stage I: no reply yet, application queued.
        assert not recorder.of_type(TransferVerdict)
        assert not seller.is_done()

    def test_taken_offer_without_offer_raises(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        with pytest.raises(ProtocolError):
            seller.step(
                [TransferAnswer(buyer_agent_id(0), 0, True)], recorder.ctx(0)
            )

    def test_unexpected_invite_accept_raises(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        with pytest.raises(ProtocolError):
            seller.step([invite_answer(0, True)], recorder.ctx(0))

    def test_leave_shrinks_waitlist(self):
        seller = SellerAgent(0, make_market(), default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(0), 0)], recorder.ctx(0))
        seller.step([Leave(buyer_agent_id(0), 0)], recorder.ctx(1))
        assert seller.waitlist == set()


class TestSellerStageTwo:
    def make_transitioned_seller(self):
        """A seller pushed past the default transition slot."""
        market = make_market()
        seller = SellerAgent(0, market, default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(0), 0)], recorder.ctx(0))
        default_slot = market.num_buyers * market.num_channels
        seller.step([], recorder.ctx(default_slot))
        assert seller.phase >= 2
        return market, seller, recorder, default_slot

    def test_transition_notifies_waitlist(self):
        _, _, recorder, _ = self.make_transitioned_seller()
        assert recorder.of_type(SellerStageNotify)

    def test_proposals_rejected_after_transition(self):
        _, seller, recorder, slot = self.make_transitioned_seller()
        seller.step([Propose(buyer_agent_id(2), 2)], recorder.ctx(slot + 1))
        decisions = recorder.of_type(Stage1Decision)
        assert decisions[-1][0] == buyer_agent_id(2)
        assert decisions[-1][1].coalition == frozenset()  # admits nobody
        assert 2 not in seller.waitlist

    def test_compatible_application_gets_offer(self):
        _, seller, recorder, slot = self.make_transitioned_seller()
        # Buyer 2 does not interfere with buyer 0 on channel 0... but her
        # price there is 0. Use buyer 1 (interferes) and check rejection,
        # then a fresh seller on channel 1 for the offer path.
        seller.step([TransferApply(buyer_agent_id(1), 1)], recorder.ctx(slot + 1))
        assert [m.offered for _, m in recorder.of_type(TransferVerdict)] == [False]

    def test_offer_and_confirm_on_clean_channel(self):
        market = make_market()
        seller = SellerAgent(1, market, default_policy())
        recorder = Recorder()
        default_slot = market.num_buyers * market.num_channels
        seller.step([], recorder.ctx(default_slot))
        seller.step(
            [TransferApply(buyer_agent_id(2), 2)], recorder.ctx(default_slot + 1)
        )
        verdicts = recorder.of_type(TransferVerdict)
        assert [(d, m.offered) for d, m in verdicts] == [(buyer_agent_id(2), True)]
        seller.step(
            [TransferAnswer(buyer_agent_id(2), 2, True)],
            recorder.ctx(default_slot + 2),
        )
        assert 2 in seller.waitlist

    def test_declined_offer_releases_the_slot(self):
        market = make_market()
        seller = SellerAgent(1, market, default_policy())
        recorder = Recorder()
        default_slot = market.num_buyers * market.num_channels
        seller.step([], recorder.ctx(default_slot))
        seller.step(
            [TransferApply(buyer_agent_id(2), 2)], recorder.ctx(default_slot + 1)
        )
        assert not seller.is_done()  # the offer is outstanding
        seller.step(
            [TransferAnswer(buyer_agent_id(2), 2, False)],
            recorder.ctx(default_slot + 2),
        )
        assert 2 not in seller.waitlist
        assert seller.is_done()

    def test_member_reapplying_is_offered_her_own_seat(self):
        """A member who applies (an amnesiac restart forgot her seat) gets
        an offer, not silence that would stall her stop-and-wait, and
        taking it leaves the coalition as it was."""
        market = make_market()
        seller = SellerAgent(1, market, default_policy(), initial_coalition={2})
        recorder = Recorder()
        seller.step([TransferApply(buyer_agent_id(2), 2)], recorder.ctx(1))
        verdicts = recorder.of_type(TransferVerdict)
        assert [(d, m.offered) for d, m in verdicts] == [(buyer_agent_id(2), True)]
        seller.step(
            [TransferAnswer(buyer_agent_id(2), 2, True)], recorder.ctx(2)
        )
        assert seller.waitlist == {2}

    def test_switch_to_phase_two_handles_each_message_once(self):
        """When Phase 1 ends within a step, Phase 2 only sends its first
        invitation: one verdict and one invitation-list entry per
        application, one decline per late proposal."""
        utilities = np.array([[1.0], [2.0], [5.0], [1.0]])
        market = SpectrumMarket(
            utilities, interference_map_from_edge_lists(4, [[(0, 1)]])
        )
        seller = SellerAgent(0, market, default_policy(), initial_coalition={0})
        state = seller.snapshot()
        state.update(invitation_list=[2])  # refused earlier, invitable now
        seller.restore(state)
        recorder = Recorder()
        horizon = default_policy().phase1_duration(market.num_channels)
        seller.step(
            [TransferApply(buyer_agent_id(1), 1), Propose(buyer_agent_id(3), 3)],
            recorder.ctx(horizon),
        )
        assert seller.phase == 3
        verdicts = recorder.of_type(TransferVerdict)
        assert [(d, m.offered) for d, m in verdicts] == [(buyer_agent_id(1), False)]
        assert [d for d, _ in recorder.of_type(Stage1Decision)] == [
            buyer_agent_id(3)
        ]
        assert [d for d, _ in recorder.of_type(Invite)] == [buyer_agent_id(2)]
        assert seller.snapshot()["invitation_list"] == [1]

    def test_rejected_applicant_is_invited_in_phase_two(self):
        market = make_market()
        seller = SellerAgent(0, market, default_policy())
        recorder = Recorder()
        seller.step([Propose(buyer_agent_id(1), 1)], recorder.ctx(0))  # holds 1
        default_slot = market.num_buyers * market.num_channels
        seller.step([], recorder.ctx(default_slot))  # transition
        # Buyer 0 applies; interferes with 1 -> rejected into invite list.
        seller.step(
            [TransferApply(buyer_agent_id(0), 0)], recorder.ctx(default_slot + 1)
        )
        assert [m.offered for _, m in recorder.of_type(TransferVerdict)] == [False]
        # Buyer 1 leaves; phase 2 begins after the phase-1 horizon.
        seller.step([Leave(buyer_agent_id(1), 1)], recorder.ctx(default_slot + 2))
        horizon = default_policy().phase1_duration(market.num_channels)
        seller.step([], recorder.ctx(default_slot + horizon + 1))
        invites = recorder.of_type(Invite)
        assert invites and invites[0][0] == buyer_agent_id(0)
        # Buyer declines -> seller done.
        seller.step(
            [invite_answer(0, False)], recorder.ctx(default_slot + horizon + 2)
        )
        assert seller.is_done()

    def test_invitations_in_price_order_ties_to_lower_id(self):
        """Phase 2 invites by descending price, equal prices to the lower
        id; a duplicate entry is skipped once its buyer has joined."""
        utilities = np.array([[2.0], [3.0], [3.0], [1.0], [3.0]])
        market = SpectrumMarket(
            utilities, interference_map_from_edge_lists(5, [[]])
        )
        seller = SellerAgent(0, market, default_policy())
        state = seller.snapshot()
        state.update(phase=3, invitation_list=[3, 4, 1, 2, 4, 0])  # Phase 2
        seller.restore(state)
        recorder = Recorder()
        invited: List[int] = []
        inbox: list = []
        for slot in range(10):
            seller.step(inbox, recorder.ctx(slot))
            invites = recorder.of_type(Invite)
            if len(invites) == len(invited):
                break
            buyer = int(invites[-1][0].split(":")[1])
            invited.append(buyer)
            inbox = [invite_answer(buyer, buyer == 4)]
        assert invited == [1, 2, 4, 0, 3]
        assert seller.waitlist == {4}
        assert seller.is_done()
