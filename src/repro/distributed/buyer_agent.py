"""Buyer agent: the buyer-side protocol state machine.

A buyer runs through two stages mirroring Algorithms 1 and 2, but drives
every step off received messages and local knowledge only:

* her own utility vector (private valuation);
* her interference neighbourhoods per channel (obtainable by spectrum
  sensing, as assumed throughout the paper);
* the coalition/proposer digests her Stage-I seller includes in
  ``Stage1Decision`` messages (what makes transition rules I/II
  evaluable).

Stage I: propose down the preference list, one outstanding proposal at a
time; on eviction resume proposing.  Transition to Stage II per the
configured rule, on the seller's notification (rule III), or when the
proposal list is exhausted.

The buyer keeps one **Stage-I seller**: the seller she proposed to, for
as long as that seller holds her.  Any decision from that seller answers
her proposal; a not-admitted decision or a Stage-II move ends the link,
and a Stage-I decision from any other seller is stale and ignored.  That
is what keeps her view right when the network reorders messages: an
admission delivered after the eviction that followed it, or after she
moved on, no longer re-matches her.

Stage II: send transfer applications down ``T_j`` (one outstanding at a
time, skipping channels no longer strictly better than the current match),
take or decline the resulting offers, and answer invitations at any
time.  On every move the buyer explicitly informs her previous seller with
a ``Leave`` message.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

import numpy as np

from repro.core.market import SpectrumMarket
from repro.core.preferences import buyer_preference_order
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
from repro.distributed.probability import eviction_probability
from repro.distributed.simulator import Agent, SlotContext
from repro.distributed.transition import BuyerTransitionRule, TransitionPolicy
from repro.errors import ProtocolError

__all__ = ["BuyerAgent", "buyer_agent_id", "seller_agent_id"]


def buyer_agent_id(buyer: int) -> str:
    """Wire id of buyer ``buyer``."""
    return f"buyer:{buyer}"


def seller_agent_id(channel: int) -> str:
    """Wire id of the seller owning ``channel``."""
    return f"seller:{channel}"


class BuyerAgent(Agent):
    """One virtual buyer of the distributed protocol.

    Parameters
    ----------
    buyer:
        The buyer's id ``j``.
    market:
        Market instance (utilities + interference neighbourhoods are the
        buyer's local knowledge).
    policy:
        The transition policy in force.
    """

    #: Buyers step before sellers so a slot carries a full propose/decide round.
    PRIORITY = 0

    def __init__(
        self,
        buyer: int,
        market: SpectrumMarket,
        policy: TransitionPolicy,
        initial_channel: Optional[int] = None,
    ) -> None:
        super().__init__(buyer_agent_id(buyer), priority=self.PRIORITY)
        self.buyer = buyer
        self._market = market
        self._policy = policy
        self._utilities = market.utilities[buyer, :]

        # Stage I state.
        self.stage = 1
        self._unproposed: List[int] = buyer_preference_order(market, buyer)
        #: The seller she proposed to, while that seller holds her.
        self._stage1_seller: Optional[int] = None
        self.current_channel: Optional[int] = None
        #: Cumulative proposer set reported by the current seller.
        self._proposers_at_current: FrozenSet[int] = frozenset()

        # Stage II state.
        self._unapplied: List[int] = []
        self._applied: Set[int] = set()
        self._outstanding_application: Optional[int] = None

        self._default_slot = policy.default_stage2_slot(
            market.num_channels, market.num_buyers
        )

        if initial_channel is not None:
            # Warm start (dynamic re-matching): the buyer already holds a
            # channel from the previous epoch and begins directly in
            # Stage II, trying to transfer upward.
            self.current_channel = initial_channel
            self._enter_stage2()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def current_utility(self) -> float:
        """Realised utility of the current match (0 when unmatched)."""
        if self.current_channel is None:
            return 0.0
        return float(self._utilities[self.current_channel])

    def _better(self, channel: int) -> bool:
        """Whether ``channel`` is strictly better than the current match."""
        return float(self._utilities[channel]) > self.current_utility()

    def _become_unmatched(self) -> None:
        self.current_channel = None
        self._proposers_at_current = frozenset()
        if self.stage == 2:
            # Evicted after an early transition (the risk Section IV-A
            # quantifies): rebuild the transfer list against a baseline of
            # zero, minus channels already applied to.
            self._rebuild_unapplied()

    def _rebuild_unapplied(self) -> None:
        baseline = self.current_utility()
        candidates = [
            i
            for i in range(self._market.num_channels)
            if self._utilities[i] > baseline and i not in self._applied
        ]
        candidates.sort(key=lambda i: (-self._utilities[i], i))
        self._unapplied = candidates

    def _enter_stage2(self) -> None:
        if self.stage == 2:
            return
        self.stage = 2
        self._rebuild_unapplied()

    def _move_to(self, channel: int, ctx: SlotContext) -> None:
        """Commit a move (a taken offer or an accepted invitation)."""
        previous = self.current_channel
        if previous is not None and previous != channel:
            ctx.send(seller_agent_id(previous), Leave(self.agent_id, self.buyer))
        self.current_channel = channel
        self._stage1_seller = None
        self._proposers_at_current = frozenset()

    # ------------------------------------------------------------------
    # Transition rules
    # ------------------------------------------------------------------
    def _stage1_transition_due(self, now: int) -> bool:
        """Evaluate the configured buyer rule (matched buyers only)."""
        if now >= self._default_slot:
            return True  # default rule / fallback of the adaptive rules
        rule = self._policy.buyer_rule
        if rule is BuyerTransitionRule.DEFAULT:
            return False
        if self.current_channel is None:
            return False
        channel = self.current_channel
        indptr, indices = self._market.graph(channel).neighbor_csr()
        neighbors = indices[indptr[self.buyer] : indptr[self.buyer + 1]].tolist()
        unseen = [k for k in neighbors if k not in self._proposers_at_current]
        if rule is BuyerTransitionRule.NEIGHBORS_PROPOSED:
            return not unseen
        if rule is BuyerTransitionRule.EVICTION_PROBABILITY:
            risk = eviction_probability(
                round_index=now + 1,
                num_unseen_neighbors=len(unseen),
                num_channels=self._market.num_channels,
                num_buyers=self._market.num_buyers,
                own_price=float(self._utilities[channel]),
                cdf=self._policy.price_cdf,
            )
            return risk < self._policy.buyer_threshold
        raise ProtocolError(f"unknown buyer rule {rule!r}")

    # ------------------------------------------------------------------
    # Agent interface
    # ------------------------------------------------------------------
    def step(self, inbox: List[Message], ctx: SlotContext) -> None:
        for message in inbox:
            ctx.set_cause(message)
            self._handle(message, ctx)

        if self.stage == 1:
            self._act_stage1(ctx)
        if self.stage == 2:
            self._act_stage2(ctx)

    def _handle(self, message: Message, ctx: SlotContext) -> None:
        if isinstance(message, Stage1Decision):
            if message.channel != self._stage1_seller:
                return  # stale: not from the seller that holds her now
            if self.buyer in message.coalition:
                self.current_channel = message.channel
                # Digests are cumulative, so a newer one holds every older
                # one; only a delayed digest needs a union.
                digest = message.proposers_so_far
                if not digest >= self._proposers_at_current:
                    digest = digest | self._proposers_at_current
                self._proposers_at_current = digest
            else:
                self._stage1_seller = None
                if self.current_channel == message.channel:
                    self._become_unmatched()
        elif isinstance(message, SellerStageNotify):
            if self.current_channel == message.channel and self.stage == 1:
                self._enter_stage2()  # rule III
        elif isinstance(message, TransferVerdict):
            if self._outstanding_application == message.channel:
                self._outstanding_application = None
            if message.offered:
                take = self._better(message.channel)
                ctx.send(
                    seller_agent_id(message.channel),
                    TransferAnswer(self.agent_id, self.buyer, take),
                )
                if take:
                    self._move_to(message.channel, ctx)
        elif isinstance(message, Invite):
            accept = self._better(message.channel)
            ctx.send(
                seller_agent_id(message.channel),
                InviteAnswer(self.agent_id, self.buyer, accept),
            )
            if accept:
                self._move_to(message.channel, ctx)
        else:
            raise ProtocolError(
                f"buyer {self.buyer} cannot handle message {message!r}"
            )

    def _act_stage1(self, ctx: SlotContext) -> None:
        if self.current_channel is None:
            if self._stage1_seller is not None:
                return  # stop-and-wait: a proposal is in flight
            if self._unproposed:
                channel = self._unproposed.pop(0)
                self._stage1_seller = channel
                ctx.send(
                    seller_agent_id(channel), Propose(self.agent_id, self.buyer)
                )
                return
            # Exhausted all proposals: nothing left to try in Stage I.
            self._enter_stage2()
            return
        if self._stage1_transition_due(ctx.now):
            self._enter_stage2()

    def _act_stage2(self, ctx: SlotContext) -> None:
        if self._outstanding_application is not None:
            return
        current = self.current_utility()
        while self._unapplied and float(
            self._utilities[self._unapplied[0]]
        ) <= current:
            self._unapplied.pop(0)  # stale: no longer strictly better
        if not self._unapplied:
            return
        channel = self._unapplied.pop(0)
        self._applied.add(channel)
        self._outstanding_application = channel
        ctx.send(seller_agent_id(channel), TransferApply(self.agent_id, self.buyer))

    def next_wake(self, now: int) -> Optional[int]:
        """Only a matched Stage-I buyer acts without a message.

        She re-evaluates her transition rule: the default deadline ``MN``
        is the only input that changes with time alone, except under rule
        II, whose eviction risk depends on the slot and is checked every
        slot.  Every other state waits on a reply, eviction, offer or
        invitation.
        """
        if self.stage != 1 or self.current_channel is None:
            return None
        if self._policy.buyer_rule is BuyerTransitionRule.EVICTION_PROBABILITY:
            return now + 1
        return self._default_slot

    def is_done(self) -> bool:
        return (
            self.stage == 2
            and self._outstanding_application is None
            and not self._has_live_applications()
        )

    # ------------------------------------------------------------------
    # Crash/restart support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint all mutable protocol state (market knowledge is
        static and shared, so only the state machine is captured)."""
        return {
            "stage": self.stage,
            "unproposed": list(self._unproposed),
            "stage1_seller": self._stage1_seller,
            "current_channel": self.current_channel,
            "proposers_at_current": set(self._proposers_at_current),
            "unapplied": list(self._unapplied),
            "applied": set(self._applied),
            "outstanding_application": self._outstanding_application,
        }

    def restore(self, state: dict) -> None:
        self.stage = state["stage"]
        self._unproposed = list(state["unproposed"])
        self._stage1_seller = state["stage1_seller"]
        self.current_channel = state["current_channel"]
        self._proposers_at_current = frozenset(state["proposers_at_current"])
        self._unapplied = list(state["unapplied"])
        self._applied = set(state["applied"])
        self._outstanding_application = state["outstanding_application"]

    def _has_live_applications(self) -> bool:
        current = self.current_utility()
        return any(float(self._utilities[i]) > current for i in self._unapplied)
