"""Stability notions for spectrum matchings (Sections III-C and III-D).

Positive results (hold for the algorithm's output, Propositions 3-4):

* **Individual rationality** (Definition 2): no seller prefers dropping
  part of her coalition, and no matched buyer prefers being unmatched.
* **Nash stability** (Definition 3): no buyer can strictly gain by
  unilaterally joining another seller's coalition (or leaving).

Negative results (Section III-D; the checkers here produce the witnesses):

* **Pairwise stability** (Definition 4) does NOT hold in general: a
  seller-buyer pair may jointly benefit if the seller may evict part of her
  coalition -- the paper's Fig. 4/5 counterexample.
* **Buyer optimality** (Definition 5) does not hold either; another
  Nash-stable matching can make some buyers strictly better off and none
  worse.  :func:`pareto_dominates_for_buyers` compares two candidate
  matchings for exactly this relation.

All checkers work on realised utilities, which is equivalent to the
coalition-preference formulation (see :mod:`~repro.core.preferences`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching

__all__ = [
    "NashBlockingMove",
    "PairwiseBlockingPair",
    "is_individually_rational",
    "nash_blocking_moves",
    "is_nash_stable",
    "pairwise_blocking_pairs",
    "is_pairwise_stable",
    "pareto_dominates_for_buyers",
]


@dataclass(frozen=True)
class NashBlockingMove:
    """A profitable unilateral deviation witnessing Nash instability.

    Buyer ``buyer`` can leave her current coalition and join channel
    ``channel`` (where she interferes with nobody), improving her realised
    utility from ``current_utility`` to ``deviation_utility``.
    """

    buyer: int
    channel: int
    current_utility: float
    deviation_utility: float


@dataclass(frozen=True)
class PairwiseBlockingPair:
    """A seller-buyer pair witnessing pairwise instability (Definition 4).

    Seller ``channel`` can evict ``evicted`` (buyer ``buyer``'s interfering
    neighbours inside the coalition) and admit ``buyer``; the seller's
    revenue rises by ``seller_gain > 0`` and the buyer's utility rises from
    ``buyer_current`` to ``buyer_new``.
    """

    channel: int
    buyer: int
    evicted: Tuple[int, ...]
    seller_gain: float
    buyer_current: float
    buyer_new: float


def is_individually_rational(market: SpectrumMarket, matching: Matching) -> bool:
    """Check Definition 2 on a matching.

    For an interference-free matching with non-negative prices this reduces
    to: (a) every coalition is interference-free (a seller whose coalition
    contains an interfering pair has realised value zero and strictly
    prefers dropping buyers until it is conflict-free, whenever any
    sub-coalition has positive price), and (b) every matched buyer has
    positive realised utility (strictly prefers her match to unmatched) or
    at least non-negative (never strictly prefers unmatched).
    """
    if not matching.is_interference_free(market.interference):
        # With all-zero prices an interfering coalition is not technically
        # blocked, but no algorithm in this library ever produces one; treat
        # it as irrational to keep the predicate strict.
        return False
    for buyer, channel in matching.matched_buyers():
        if market.price(channel, buyer) < 0.0:
            return False
    return True


def _realised_utilities(market: SpectrumMarket, matching: Matching) -> np.ndarray:
    """Every buyer's realised utility ``b_{mu(j),j}`` (0 if unmatched)."""
    assignment = matching.as_assignment()
    matched = [buyer for buyer, channel in enumerate(assignment) if channel is not None]
    current = np.zeros(market.num_buyers)
    current[matched] = market.utilities[matched, [assignment[b] for b in matched]]
    return current


def nash_blocking_moves(
    market: SpectrumMarket, matching: Matching
) -> Iterator[NashBlockingMove]:
    """Yield every profitable unilateral deviation (lazy), buyer-major.

    A buyer's deviation utility for channel ``i`` is ``b_{i,j}`` when she
    has no interfering neighbour in ``mu(i)`` and zero otherwise; the move
    blocks iff it strictly exceeds her current realised utility.  Each
    channel's coalition neighbourhood is marked once, so every candidate
    ``(buyer, channel)`` costs one lookup.
    """
    utilities = market.utilities
    current = _realised_utilities(market, matching)
    # A buyer's own channel never blocks: its gain equals her utility.
    blocking = utilities > current[:, None]
    for channel in range(market.num_channels):
        blocking[:, channel] &= ~market.graph(channel).conflict_mask(
            matching.coalition(channel)
        )
    for buyer, channel in zip(*np.nonzero(blocking)):
        yield NashBlockingMove(
            buyer=int(buyer),
            channel=int(channel),
            current_utility=float(current[buyer]),
            deviation_utility=float(utilities[buyer, channel]),
        )


def is_nash_stable(market: SpectrumMarket, matching: Matching) -> bool:
    """Check Definition 3: no profitable unilateral deviation exists."""
    return next(nash_blocking_moves(market, matching), None) is None


def pairwise_blocking_pairs(
    market: SpectrumMarket, matching: Matching
) -> Iterator[PairwiseBlockingPair]:
    """Yield every blocking seller-buyer pair of Definition 4 (lazy).

    For each candidate pair ``(i, j)`` with ``j not in mu(i)``, the optimal
    eviction set is exactly ``j``'s interfering neighbours inside ``mu(i)``
    (evicting anyone else only costs the seller revenue), so the pair blocks
    iff both strict improvements hold:

    * seller: ``b_{i,j} > sum of prices of the evicted neighbours``;
    * buyer: ``b_{i,j} > her current realised utility``.
    """
    utilities = market.utilities
    current = _realised_utilities(market, matching)
    for channel in range(market.num_channels):
        indptr, indices = market.graph(channel).neighbor_csr()
        coalition = matching.coalition(channel)
        members = np.zeros(market.num_buyers, dtype=bool)
        members[list(coalition)] = True
        prices = utilities[:, channel]
        # Only buyers outside mu(i) who would strictly improve can block.
        for buyer in np.flatnonzero((prices > current) & ~members).tolist():
            row = indices[indptr[buyer] : indptr[buyer + 1]]
            evicted = tuple(row[members[row]].tolist())
            price = float(prices[buyer])
            evicted_value = sum(float(utilities[k, channel]) for k in evicted)
            if price <= evicted_value:
                continue  # seller would not strictly improve
            yield PairwiseBlockingPair(
                channel=channel,
                buyer=buyer,
                evicted=evicted,
                seller_gain=price - evicted_value,
                buyer_current=float(current[buyer]),
                buyer_new=price,
            )


def is_pairwise_stable(market: SpectrumMarket, matching: Matching) -> bool:
    """Check Definition 4: no blocking seller-buyer pair exists.

    The paper proves the two-stage algorithm does NOT guarantee this; the
    checker exists to demonstrate that (and to find counterexamples).
    """
    return next(pairwise_blocking_pairs(market, matching), None) is None


def pareto_dominates_for_buyers(
    market: SpectrumMarket, candidate: Matching, baseline: Matching
) -> bool:
    """Whether ``candidate`` buyer-Pareto-dominates ``baseline`` (Definition 5).

    True iff no buyer's realised utility is lower under ``candidate`` and at
    least one buyer's is strictly higher.  Combined with
    :func:`is_nash_stable` on the candidate, a ``True`` result witnesses
    that ``baseline`` is not buyer-optimal among Nash-stable matchings.
    """
    utilities = market.utilities
    strictly_better = False
    for buyer in range(market.num_buyers):
        before = baseline.buyer_utility(buyer, utilities)
        after = candidate.buyer_utility(buyer, utilities)
        if after < before - 1e-12:
            return False
        if after > before + 1e-12:
            strictly_better = True
    return strictly_better
