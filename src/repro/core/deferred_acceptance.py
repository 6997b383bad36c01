"""Stage I: adapted deferred acceptance (Algorithm 1 of the paper).

The classic Gale-Shapley deferred acceptance is adapted to spectrum
matching by replacing colleges' fixed quotas with interference-aware
coalition formation: each round, every unmatched buyer with proposals left
proposes to her most-preferred unproposed channel, and every seller with
fresh proposers re-forms her waitlist as the most valuable interference-free
subset of (waitlist ∪ proposers) -- a maximum-weight-independent-set (MWIS)
computed with the market's configured solver (greedy GWMIN by default,
following reference [8] of the paper).

Termination (Proposition 1): each proposal permanently consumes one entry
of the proposing buyer's unproposed-seller list, so the total number of
proposals is at most ``N * M`` and the loop always ends.

Implementation notes
--------------------
* Sellers use a *monotone guard* (on by default): since the greedy MWIS is
  only an approximation, its output on the enlarged pool can occasionally
  be worth less than the incumbent waitlist.  A real seller would never
  voluntarily adopt a worse coalition, so the seller also considers keeping
  her waitlist and greedily extending it with compatible fresh proposers,
  and adopts whichever candidate has the higher total price.  With the
  exact MWIS solver the guard never changes the outcome.
* All tie-breaks (buyer proposal order, MWIS selection) are deterministic,
  so a given market instance always produces the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import soa
from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.preferences import buyer_preference_order
from repro.core.trace import StageOneRound
from repro.interference.mwis import mwis_solve
from repro.obs.events import round_to_event
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = [
    "StageOneResult",
    "deferred_acceptance",
    "seller_select_coalition",
]

@dataclass(frozen=True)
class StageOneResult:
    """Outcome of Stage I.

    Attributes
    ----------
    matching:
        The interference-free matching formed by the final waitlists.
    rounds:
        Per-round trace records (empty if ``record_trace=False``).
    num_rounds:
        Number of proposal rounds executed (the stage's running time in
        time slots, as plotted in Fig. 8).
    total_proposals:
        Total proposals sent across all rounds (bounded by ``N * M``).
    """

    matching: Matching
    rounds: Tuple[StageOneRound, ...]
    num_rounds: int
    total_proposals: int


def seller_select_coalition(
    market: SpectrumMarket,
    channel: int,
    pool: Sequence[int],
    incumbent: Sequence[int] = (),
    monotone_guard: bool = True,
) -> List[int]:
    """Form a seller's most-preferred coalition from a candidate pool.

    Solves (approximately) the MWIS on channel ``channel``'s interference
    graph restricted to ``pool``, with the buyers' offered prices as
    weights.  With ``monotone_guard`` the result is guaranteed to be worth
    at least as much as ``incumbent`` (which must be a subset of ``pool``).

    Returns the selected buyers sorted ascending.
    """
    graph = market.graph(channel)
    prices = market.channel_prices(channel)
    weights = {j: float(prices[j]) for j in pool}
    candidate = mwis_solve(graph, weights, pool, market.mwis_algorithm)
    if not monotone_guard or not incumbent:
        return candidate

    candidate_value = sum(weights[j] for j in candidate)
    incumbent_value = sum(weights[j] for j in incumbent)
    # Try keeping the incumbent waitlist and extending it with compatible
    # newcomers (solved as an MWIS among the compatible newcomers only).
    newcomers = [j for j in pool if j not in set(incumbent)]
    compatible = graph.independent_subset_greedily_compatible(incumbent, newcomers)
    extension = mwis_solve(graph, weights, compatible, market.mwis_algorithm)
    extended = sorted(set(incumbent) | set(extension))
    extended_value = incumbent_value + sum(weights[j] for j in extension)
    if extended_value > candidate_value:
        return extended
    return candidate


def deferred_acceptance(
    market: SpectrumMarket,
    record_trace: bool = True,
    monotone_guard: bool = True,
    recorder: Optional[Recorder] = None,
) -> StageOneResult:
    """Run Stage I (Algorithm 1) to an interference-free matching.

    Parameters
    ----------
    market:
        The virtual-level spectrum market.
    record_trace:
        Keep per-round :class:`~repro.core.trace.StageOneRound` records.
        Disable for large benchmark sweeps to save memory.
    monotone_guard:
        See module docstring; keep ``True`` unless reproducing the literal
        greedy-only behaviour.
    recorder:
        Observability backend (``None`` resolves to the ambient recorder,
        the null one by default).  When live, each round is emitted as a
        ``stage1.round`` event, the stage runs under a ``stage1`` span
        with one ``stage1.mwis`` child span per seller-side MWIS solve,
        and round/proposal counters accumulate in the metrics registry.

    Returns
    -------
    StageOneResult
        Matching plus round statistics.  The matching is guaranteed
        interference-free (each waitlist is an independent set by
        construction).
    """
    rec = resolve_recorder(recorder)
    if rec.enabled:
        with rec.span("stage1"):
            result = _deferred_acceptance_observed(
                market, record_trace, monotone_guard, rec
            )
        return result
    return _deferred_acceptance_impl(market, record_trace, monotone_guard)


def _deferred_acceptance_observed(
    market: SpectrumMarket,
    record_trace: bool,
    monotone_guard: bool,
    rec: Recorder,
) -> StageOneResult:
    """Instrumented Stage I wrapper: runs the core loop with a per-round
    observer, then reports the stage totals to the metrics registry."""
    result = _deferred_acceptance_impl(
        market, record_trace, monotone_guard, rec
    )
    metrics = rec.metrics
    if metrics.enabled:
        metrics.counter("stage1.rounds").inc(result.num_rounds)
        metrics.counter("stage1.proposals").inc(result.total_proposals)
    return result


def _deferred_acceptance_impl(
    market: SpectrumMarket,
    record_trace: bool = True,
    monotone_guard: bool = True,
    rec: Optional[Recorder] = None,
) -> StageOneResult:
    observing = rec is not None and rec.enabled
    emitting = observing and rec.events.enabled
    # A null registry returns a no-op timer, so this is safe to enter even
    # when only events or spans are live.
    mwis_timer = rec.metrics.timer("stage1.mwis_solve_s") if observing else None
    num_buyers = market.num_buyers

    if market.mwis_algorithm in soa.BATCHED_ALGORITHMS:
        # Fast path: one vectorised proposal/score/acceptance pass per
        # round across all sellers, byte-identical to the per-seller
        # reference loop below (differential- and golden-trace tested).
        # GWMAX/EXACT have no batched kernel and take the reference.
        matching, rounds, num_rounds, total_proposals = (
            soa.batched_deferred_acceptance(
                market, record_trace, monotone_guard, rec
            )
        )
        return StageOneResult(
            matching=matching,
            rounds=rounds,
            num_rounds=num_rounds,
            total_proposals=total_proposals,
        )

    # Algorithm 1, lines 1-3: initialise waitlists and unproposed lists.
    unproposed: List[List[int]] = [
        buyer_preference_order(market, j) for j in range(num_buyers)
    ]
    waitlists: List[Set[int]] = [set() for _ in range(market.num_channels)]
    matched_to: List[Optional[int]] = [None] * num_buyers

    rounds: List[StageOneRound] = []
    num_rounds = 0
    total_proposals = 0

    while True:
        # Line 4: continue while some unmatched buyer can still propose.
        proposers = [
            j for j in range(num_buyers) if matched_to[j] is None and unproposed[j]
        ]
        if not proposers:
            break
        num_rounds += 1

        # Lines 5-10: every such buyer proposes to her best remaining channel.
        proposals: Dict[int, List[int]] = {}
        for j in proposers:
            channel = unproposed[j].pop(0)
            proposals.setdefault(channel, []).append(j)
            total_proposals += 1

        # Lines 11-14: sellers with proposers re-form their waitlists.
        evictions: List[Tuple[int, int]] = []
        rejections: List[Tuple[int, int]] = []
        for channel in sorted(proposals):
            fresh = proposals[channel]
            pool = sorted(waitlists[channel] | set(fresh))
            incumbent = sorted(waitlists[channel])
            args = (market, channel, pool, incumbent, monotone_guard)
            if observing:
                with rec.span("stage1.mwis"), mwis_timer:
                    selected = set(seller_select_coalition(*args))
            else:
                selected = set(seller_select_coalition(*args))
            for j in waitlists[channel] - selected:
                matched_to[j] = None
                evictions.append((j, channel))
            for j in fresh:
                if j not in selected:
                    rejections.append((j, channel))
            for j in selected:
                matched_to[j] = channel
            waitlists[channel] = selected

        if record_trace or emitting:
            record = StageOneRound(
                round_index=num_rounds,
                proposals={
                    channel: tuple(sorted(buyers))
                    for channel, buyers in proposals.items()
                },
                waitlists={
                    channel: tuple(sorted(members))
                    for channel, members in enumerate(waitlists)
                    if members
                },
                evictions=tuple(sorted(evictions)),
                rejections=tuple(sorted(rejections)),
            )
            if record_trace:
                rounds.append(record)
            if emitting:
                rec.events.emit(round_to_event(record))
        if observing:
            rec.metrics.counter("stage1.evictions").inc(len(evictions))
            rec.metrics.counter("stage1.rejections").inc(len(rejections))

    # Lines 16-25: materialise mu from the final waitlists.
    matching = Matching(market.num_channels, num_buyers)
    for channel, members in enumerate(waitlists):
        matching.set_coalition(channel, members)

    return StageOneResult(
        matching=matching,
        rounds=tuple(rounds),
        num_rounds=num_rounds,
        total_proposals=total_proposals,
    )
