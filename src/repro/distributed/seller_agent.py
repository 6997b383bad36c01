"""Seller agent: the seller-side protocol state machine.

A seller moves through three local phases:

1. **Stage I** -- each slot, fold fresh proposals into the waitlist by
   re-solving the coalition MWIS (identical selection logic to the
   centralised Algorithm 1, including the monotone guard) and send one
   ``Stage1Decision`` (the new coalition plus the cumulative proposer
   digest) to the displaced, the declined proposers and the members, in
   that order.  Transfer applications that arrive early are queued.  The
   configured transition rule -- the default ``MN`` slot or the ``Q^k``
   estimate of eq. (9) -- decides when to move on; on transition the
   seller notifies her coalition (enabling buyer rule III) and stops
   granting proposals.

2. **Stage II Phase 1** -- process queued/incoming transfer applications
   in slot batches: offer the best compatible extension (MWIS over
   applicants compatible with the coalition), reject the rest into the
   invitation list, and commit the offers buyers take
   (``TransferAnswer``).  After the Phase-1 horizon (``M`` + grace slots)
   with no outstanding offers, move to Phase 2.

3. **Stage II Phase 2** -- screen the invitation list against the current
   coalition and invite survivors one at a time in descending price order
   (at most one invitation outstanding, so acceptances can never
   conflict).  Late transfer applications are rejected but appended to the
   invitation list, preserving the paper's "invite whom I rejected"
   semantics under asynchrony.  The seller is done when the list empties.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.deferred_acceptance import seller_select_coalition
from repro.core.market import SpectrumMarket
from repro.distributed.buyer_agent import buyer_agent_id
from repro.distributed.messages import (
    Invite,
    InviteAnswer,
    Leave,
    Message,
    Propose,
    SellerStageNotify,
    Stage1Decision,
    TransferAnswer,
    TransferApply,
    TransferVerdict,
)
from repro.distributed.probability import better_proposal_probability
from repro.distributed.simulator import Agent, SlotContext
from repro.distributed.transition import SellerTransitionRule, TransitionPolicy
from repro.errors import ProtocolError
from repro.interference.mwis import mwis_solve

__all__ = ["SellerAgent"]

#: Local phase markers (seller-internal, not wire-visible).
_STAGE1 = 1
_PHASE1 = 2
_PHASE2 = 3


class SellerAgent(Agent):
    """One virtual seller (channel owner) of the distributed protocol."""

    #: Sellers step after buyers so a slot carries a full round.
    PRIORITY = 1

    def __init__(
        self,
        channel: int,
        market: SpectrumMarket,
        policy: TransitionPolicy,
        initial_coalition: Optional[Set[int]] = None,
    ) -> None:
        super().__init__(f"seller:{channel}", priority=self.PRIORITY)
        self.channel = channel
        self._market = market
        self._policy = policy
        self._graph = market.graph(channel)
        self._prices = market.channel_prices(channel)

        self.phase = _STAGE1
        self.waitlist: Set[int] = set()
        self._proposers_so_far: Set[int] = set()
        self._pending_applications: List[int] = []
        self._outstanding_offers: Set[int] = set()
        self._invitation_list: List[int] = []
        self._outstanding_invite: Optional[int] = None
        self._transition_slot: Optional[int] = None

        self._default_slot = policy.default_stage2_slot(
            market.num_channels, market.num_buyers
        )
        self._phase1_duration = policy.phase1_duration(market.num_channels)

        if initial_coalition is not None:
            # Warm start: the seller carries her previous-epoch coalition
            # and begins directly in Stage II Phase 1 -- no Stage-I
            # proposals will come, only transfer applications.
            if not self._graph.is_independent(initial_coalition):
                raise ProtocolError(
                    f"warm-start coalition {sorted(initial_coalition)} is not "
                    f"interference-free on channel {channel}"
                )
            self.waitlist = set(initial_coalition)
            self.phase = _PHASE1
            self._transition_slot = 0

    # ------------------------------------------------------------------
    # Agent interface
    # ------------------------------------------------------------------
    def step(self, inbox: List[Message], ctx: SlotContext) -> None:
        proposals: List[int] = []
        applications: List[int] = []
        for message in inbox:
            ctx.set_cause(message)
            if isinstance(message, Leave):
                self.waitlist.discard(message.buyer)
            elif isinstance(message, Propose):
                proposals.append(message.buyer)
            elif isinstance(message, TransferApply):
                applications.append(message.buyer)
            elif isinstance(message, TransferAnswer):
                if message.take:
                    self._commit_transfer(message.buyer)
                else:
                    self._outstanding_offers.discard(message.buyer)
            elif isinstance(message, InviteAnswer):
                if message.accept:
                    self._commit_invite(message.buyer)
                elif self._outstanding_invite == message.buyer:
                    self._outstanding_invite = None
            else:
                raise ProtocolError(
                    f"seller {self.channel} cannot handle message {message!r}"
                )

        if self.phase == _STAGE1:
            self._stage1(proposals, applications, ctx)
        elif self.phase == _PHASE1:
            self._phase1(proposals, applications, ctx)
            # Phase 1 answered this slot's messages; a switch to Phase 2
            # within the slot only sends its first invitation.
            proposals = applications = []
        if self.phase == _PHASE2:
            self._phase2(proposals, applications, ctx)

    # ------------------------------------------------------------------
    # Stage I
    # ------------------------------------------------------------------
    def _stage1(
        self, proposals: List[int], applications: List[int], ctx: SlotContext
    ) -> None:
        self._pending_applications.extend(applications)

        if proposals:
            fresh = sorted(set(proposals))
            self._proposers_so_far.update(fresh)
            pool = sorted(self.waitlist | set(fresh))
            selected = set(
                seller_select_coalition(
                    self._market,
                    self.channel,
                    pool,
                    incumbent=sorted(self.waitlist),
                    monotone_guard=True,
                )
            )
            decision = Stage1Decision(
                self.agent_id,
                self.channel,
                frozenset(selected),
                frozenset(self._proposers_so_far),
            )
            displaced = sorted(self.waitlist - selected)
            declined = [buyer for buyer in fresh if buyer not in selected]
            for buyer in displaced + declined + sorted(selected):
                ctx.send(buyer_agent_id(buyer), decision)
            self.waitlist = selected

        if self._stage1_transition_due(bool(proposals), ctx.now):
            self.phase = _PHASE1
            self._transition_slot = ctx.now
            notify = SellerStageNotify(self.agent_id, self.channel)
            for buyer in sorted(self.waitlist):
                ctx.send(buyer_agent_id(buyer), notify)

    def _stage1_transition_due(self, had_proposals: bool, now: int) -> bool:
        if now >= self._default_slot:
            return True
        rule = self._policy.seller_rule
        if rule is SellerTransitionRule.DEFAULT:
            return False
        if rule is SellerTransitionRule.BETTER_PROPOSAL_PROBABILITY:
            # The paper's trigger: no proposal this slot, but transfer
            # applications waiting for a decision (Section IV-B).
            if had_proposals or not self._pending_applications:
                return False
            unseen = [
                j
                for j in range(self._market.num_buyers)
                if j not in self._proposers_so_far
            ]
            if not self.waitlist:
                # Nothing to defend; processing applications is free upside.
                return True
            cheapest = min(
                self.waitlist, key=lambda j: (float(self._prices[j]), j)
            )
            blocked = self._graph.conflict_mask(self.waitlist - {cheapest})
            compatible = sum(1 for j in unseen if not blocked[j])
            theta = compatible / len(unseen) if unseen else 0.0
            risk = better_proposal_probability(
                round_index=now + 1,
                num_unseen_buyers=len(unseen),
                num_channels=self._market.num_channels,
                num_buyers=self._market.num_buyers,
                lowest_price=float(self._prices[cheapest]),
                theta=theta,
                cdf=self._policy.price_cdf,
            )
            return risk < self._policy.seller_threshold
        raise ProtocolError(f"unknown seller rule {rule!r}")

    # ------------------------------------------------------------------
    # Stage II Phase 1
    # ------------------------------------------------------------------
    def _commit_transfer(self, buyer: int) -> None:
        if buyer not in self._outstanding_offers:
            raise ProtocolError(
                f"buyer {buyer} took an offer seller {self.channel} "
                f"has not made"
            )
        self._outstanding_offers.discard(buyer)
        if self._graph.conflicts_with_set(buyer, self.waitlist):
            raise ProtocolError(
                f"taken transfer of buyer {buyer} conflicts with "
                f"coalition {sorted(self.waitlist)} on channel {self.channel}"
            )
        self.waitlist.add(buyer)

    def _decline_proposals(self, proposals: List[int], ctx: SlotContext) -> None:
        """After the transition no proposal can be granted: the decision
        admits nobody."""
        if proposals:
            decision = Stage1Decision(
                self.agent_id,
                self.channel,
                frozenset(),
                frozenset(self._proposers_so_far),
            )
            for buyer in proposals:
                ctx.send(buyer_agent_id(buyer), decision)

    def _phase1(
        self, proposals: List[int], applications: List[int], ctx: SlotContext
    ) -> None:
        self._decline_proposals(proposals, ctx)
        self._pending_applications.extend(applications)

        if not self._outstanding_offers and self._pending_applications:
            applicants = list(dict.fromkeys(self._pending_applications))
            self._pending_applications = []
            # Members are left out of the contest (``compatible`` skips
            # the waitlist) and offered their own seat: a member who
            # applies has lost her view (an amnesiac restart), and taking
            # the offer brings it back in line at no cost.
            compatible = self._graph.independent_subset_greedily_compatible(
                self.waitlist, applicants
            )
            weights = {j: float(self._prices[j]) for j in compatible}
            accepted = set(
                mwis_solve(
                    self._graph, weights, compatible, self._market.mwis_algorithm
                )
            )
            for buyer in applicants:
                offered = buyer in accepted or buyer in self.waitlist
                if offered:
                    self._outstanding_offers.add(buyer)
                else:
                    self._invitation_list.append(buyer)
                ctx.send(
                    buyer_agent_id(buyer),
                    TransferVerdict(self.agent_id, self.channel, offered),
                )

        assert self._transition_slot is not None
        if (
            ctx.now - self._transition_slot >= self._phase1_duration
            and not self._outstanding_offers
            and not self._pending_applications
        ):
            self.phase = _PHASE2

    # ------------------------------------------------------------------
    # Stage II Phase 2
    # ------------------------------------------------------------------
    def _commit_invite(self, buyer: int) -> None:
        if self._outstanding_invite != buyer:
            raise ProtocolError(
                f"seller {self.channel} got an accepted invitation from buyer "
                f"{buyer} but invited {self._outstanding_invite}"
            )
        self._outstanding_invite = None
        if self._graph.conflicts_with_set(buyer, self.waitlist):
            raise ProtocolError(
                f"accepted invitation of buyer {buyer} conflicts with "
                f"coalition {sorted(self.waitlist)} on channel {self.channel}"
            )
        self.waitlist.add(buyer)
        # Algorithm 2, line 29: drop the new member's interfering neighbours.
        near = self._graph.conflict_mask((buyer,))
        self._invitation_list = [k for k in self._invitation_list if not near[k]]

    def _phase2(
        self, proposals: List[int], applications: List[int], ctx: SlotContext
    ) -> None:
        self._decline_proposals(proposals, ctx)
        # Late transfer applications: reject, but keep the buyers invitable.
        for buyer in applications:
            ctx.send(
                buyer_agent_id(buyer),
                TransferVerdict(self.agent_id, self.channel, False),
            )
            self._invitation_list.append(buyer)

        if self._outstanding_invite is not None:
            return
        # Invite in descending price order, ties to the lower id.
        self._invitation_list.sort(key=lambda j: (-float(self._prices[j]), j))
        while self._invitation_list:
            # Screen lazily at invitation time (equivalent to Algorithm 2's
            # upfront screen, but robust to coalition changes in between).
            best = self._invitation_list.pop(0)
            if best in self.waitlist:
                continue
            if self._graph.conflicts_with_set(best, self.waitlist):
                continue
            self._outstanding_invite = best
            ctx.send(buyer_agent_id(best), Invite(self.agent_id, self.channel))
            return

    def next_wake(self, now: int) -> Optional[int]:
        """The seller's deadlines: her stage transition and Phase-1 end.

        Stage I waits for the default slot ``MN``, or re-checks the
        ``Q^k`` rule every slot while applications are queued (its risk
        depends on the slot).  Phase 1 waits on confirms while offers are
        outstanding; applications queued in Stage I are decided the slot
        after the transition (``step`` runs Phase 1 only from the next
        slot on); otherwise she moves to Phase 2 at the horizon.  Phase 2
        only reacts to replies and late applications.
        """
        if self.phase == _STAGE1:
            if (
                self._pending_applications
                and self._policy.seller_rule
                is SellerTransitionRule.BETTER_PROPOSAL_PROBABILITY
            ):
                return now + 1
            return self._default_slot
        if self.phase == _PHASE1:
            if self._outstanding_offers:
                return None
            if self._pending_applications:
                return now + 1
            assert self._transition_slot is not None
            return self._transition_slot + self._phase1_duration
        return None

    def is_done(self) -> bool:
        """Quiescent: no obligation that could still change the matching.

        A seller is done when she holds no queued applications, no
        unconfirmed offers, no outstanding invitation and an empty
        invitation list -- *regardless of phase*.  A Stage-I seller in
        that state is purely reactive: she only acts again if a message
        arrives, and the kernel's termination condition (all agents done
        AND no message in flight) already guarantees none will.  Without
        this, a seller that never receives a transfer application would
        idle until the default-rule deadline even though the market
        settled long ago, making every adaptive run cost ~MN slots.
        """
        return (
            self._outstanding_invite is None
            and not self._invitation_list
            and not self._outstanding_offers
            and not self._pending_applications
        )

    # ------------------------------------------------------------------
    # Crash/restart support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint all mutable protocol state (graph/prices are static)."""
        return {
            "phase": self.phase,
            "waitlist": set(self.waitlist),
            "proposers_so_far": set(self._proposers_so_far),
            "pending_applications": list(self._pending_applications),
            "outstanding_offers": set(self._outstanding_offers),
            "invitation_list": list(self._invitation_list),
            "outstanding_invite": self._outstanding_invite,
            "transition_slot": self._transition_slot,
        }

    def restore(self, state: dict) -> None:
        self.phase = state["phase"]
        self.waitlist = set(state["waitlist"])
        self._proposers_so_far = set(state["proposers_so_far"])
        self._pending_applications = list(state["pending_applications"])
        self._outstanding_offers = set(state["outstanding_offers"])
        self._invitation_list = list(state["invitation_list"])
        self._outstanding_invite = state["outstanding_invite"]
        self._transition_slot = state["transition_slot"]
