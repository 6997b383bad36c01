"""Matching-quality metrics beyond the shared validation report.

One matching's welfare, matched-buyer counts, per-agent utilities and
the stability verdicts of Section III come from the engine's shared
validation pipeline, :func:`repro.engine.validation.validate_matching`
-- the same code path behind every
:class:`~repro.engine.report.SolveReport` -- so analysis numbers can
never drift from solver-report numbers.  This module adds the
multi-demand view: :func:`demand_satisfaction`.
"""

from __future__ import annotations

from typing import Dict

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching

__all__ = ["demand_satisfaction"]


def demand_satisfaction(market: SpectrumMarket, matching: Matching) -> Dict[int, float]:
    """Per-physical-buyer fraction of demanded channels obtained.

    Uses the market's ``buyer_owner`` map: physical buyer ``p`` demanded
    as many channels as she has clones; the satisfaction is the fraction
    of those clones that ended up matched.  For single-demand markets
    (owner == virtual id) this is simply 0/1 per buyer.
    """
    demanded: Dict[int, int] = {}
    granted: Dict[int, int] = {}
    for virtual, owner in enumerate(market.buyer_owner):
        demanded[owner] = demanded.get(owner, 0) + 1
        if matching.is_matched(virtual):
            granted[owner] = granted.get(owner, 0) + 1
    return {
        owner: granted.get(owner, 0) / count
        for owner, count in demanded.items()
    }
