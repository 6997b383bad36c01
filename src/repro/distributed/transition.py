"""Stage-transition policies (Section IV).

The two-stage algorithm is distributed *within* each stage, but stage
boundaries need coordination: a buyer cannot observe that all other buyers
have stopped proposing.  The paper proposes per-participant rules:

* **Default rule** -- wait out the worst-case horizons: ``MN`` slots for
  Stage I, then ``M`` for Stage II Phase 1, then ``N`` for Phase 2.  Safe
  but extremely slow (23 slots for the toy example that actually needs 7).
* **Buyer rule I** -- transition once all interfering neighbours have
  proposed to the buyer's current seller (her match can no longer change).
* **Buyer rule II** -- transition once the estimated eviction probability
  ``P^k`` (eqs. 7-8) falls below a threshold.
* **Buyer rule III** -- transition upon the matched seller's notification
  (always active: it costs nothing and is exact).
* **Seller rule** -- transition once the estimated better-proposal
  probability ``Q^k`` (eq. 9) falls below a threshold.

A :class:`TransitionPolicy` bundles one buyer rule and one seller rule with
their thresholds.  Adaptive rules always keep the default slot as a
fallback so liveness never depends on a probability estimate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.distributed.probability import PriceCdf, uniform_price_cdf
from repro.errors import SpectrumMatchingError

__all__ = [
    "BuyerTransitionRule",
    "SellerTransitionRule",
    "TransitionPolicy",
    "default_policy",
    "adaptive_policy",
    "neighbor_rule_policy",
    "NAMED_POLICIES",
]


class BuyerTransitionRule(str, enum.Enum):
    """Which Stage-I exit condition buyers evaluate while matched."""

    #: Wait for the default slot ``MN`` (plus rule III notifications).
    DEFAULT = "default"
    #: Rule I: all interfering neighbours have proposed to my seller.
    NEIGHBORS_PROPOSED = "neighbors_proposed"
    #: Rule II: estimated eviction probability ``P^k`` below threshold.
    EVICTION_PROBABILITY = "eviction_probability"


class SellerTransitionRule(str, enum.Enum):
    """Which Stage-I exit condition sellers evaluate."""

    #: Wait for the default slot ``MN``.
    DEFAULT = "default"
    #: Estimated better-proposal probability ``Q^k`` below threshold.
    BETTER_PROPOSAL_PROBABILITY = "better_proposal_probability"


@dataclass(frozen=True)
class TransitionPolicy:
    """Configuration of the distributed run's stage transitions.

    Attributes
    ----------
    buyer_rule / seller_rule:
        Rule selectors (see the enums above).  Rule III (seller
        notification) and the exhausted-proposal-list exit are always
        active regardless of the selector.
    buyer_threshold / seller_threshold:
        Probability thresholds for the adaptive rules.
    price_cdf:
        The price distribution ``F`` used by eqs. (7)-(9); uniform [0, 1]
        by default, matching the paper's workloads.
    phase1_grace_slots:
        Extra slots a seller waits (beyond ``M``, the Phase-1 horizon of
        Proposition 2) after her own stage transition before starting
        Phase 2, absorbing the offer/confirm handshake latency.
    """

    buyer_rule: BuyerTransitionRule = BuyerTransitionRule.DEFAULT
    seller_rule: SellerTransitionRule = SellerTransitionRule.DEFAULT
    buyer_threshold: float = 0.05
    seller_threshold: float = 0.05
    price_cdf: PriceCdf = uniform_price_cdf
    phase1_grace_slots: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.buyer_threshold < 1.0:
            raise SpectrumMatchingError(
                f"buyer_threshold must lie in (0, 1), got {self.buyer_threshold}"
            )
        if not 0.0 < self.seller_threshold < 1.0:
            raise SpectrumMatchingError(
                f"seller_threshold must lie in (0, 1), got {self.seller_threshold}"
            )
        if self.phase1_grace_slots < 0:
            raise SpectrumMatchingError("phase1_grace_slots must be >= 0")

    def default_stage2_slot(self, num_channels: int, num_buyers: int) -> int:
        """The default rule's Stage-II entry slot: ``MN``."""
        return num_channels * num_buyers

    def phase1_duration(self, num_channels: int) -> int:
        """Slots a seller spends in Phase 1 before starting Phase 2.

        The paper's default is ``M`` rounds (Proposition 2 bounds Phase 1
        by ``O(M)``); the grace slots absorb the explicit offer/confirm
        handshake of the message-level protocol.
        """
        return num_channels + self.phase1_grace_slots


def default_policy() -> TransitionPolicy:
    """The paper's conservative default transition rule."""
    return TransitionPolicy(
        buyer_rule=BuyerTransitionRule.DEFAULT,
        seller_rule=SellerTransitionRule.DEFAULT,
    )


def adaptive_policy(
    buyer_threshold: float = 0.05,
    seller_threshold: float = 0.05,
    price_cdf: PriceCdf = uniform_price_cdf,
) -> TransitionPolicy:
    """Probability-driven rules (buyer rule II + seller ``Q^k`` rule)."""
    return TransitionPolicy(
        buyer_rule=BuyerTransitionRule.EVICTION_PROBABILITY,
        seller_rule=SellerTransitionRule.BETTER_PROPOSAL_PROBABILITY,
        buyer_threshold=buyer_threshold,
        seller_threshold=seller_threshold,
        price_cdf=price_cdf,
    )


def neighbor_rule_policy() -> TransitionPolicy:
    """Buyer rule I (exact but conservative) with the default seller rule."""
    return TransitionPolicy(
        buyer_rule=BuyerTransitionRule.NEIGHBORS_PROPOSED,
        seller_rule=SellerTransitionRule.DEFAULT,
    )


#: The policies a run names (``engine.options.policy``, the CLI's
#: ``--policy``), by name.  The one name-to-factory table: the spec
#: checks, the Session and the ``distributed`` solver all read it.
NAMED_POLICIES: Dict[str, Callable[[], TransitionPolicy]] = {
    "default": default_policy,
    "adaptive": adaptive_policy,
}
