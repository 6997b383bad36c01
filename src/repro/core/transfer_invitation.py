"""Stage II: transfer and invitation (Algorithm 2 of the paper).

Stage I's output is interference-free but generally *not* stable: the peer
effect means a buyer rejected in the presence of an interfering rival may
become acceptable later, after that rival moved elsewhere.  Stage II
repairs this in two phases:

* **Phase 1 -- Transfer.**  Every buyer applies, in preference order, to
  the sellers she strictly prefers to her current match (``T_j`` of
  Algorithm 2, line 3).  A seller never evicts anyone in this stage: she
  accepts the most valuable set of applicants that is compatible with her
  current coalition (an MWIS among the compatible applicants), and records
  the rejected applicants on her *invitation list*.  No Ping-Pong is
  possible because each buyer applies at most once per seller.

* **Phase 2 -- Invitation.**  Once transfers settle, a seller whose
  coalition shrank may be able to host buyers she rejected earlier.  Each
  seller screens her invitation list down to buyers compatible with her
  current coalition, then invites them in descending price order; a buyer
  accepts iff the inviting seller is strictly better than her current
  match.  Phase 2 opportunities are rare (Section V-C) but necessary for
  Nash stability (Proposition 4).

Implementation notes (documented deviations, see DESIGN.md):

* ``T_j`` is fixed when Phase 1 starts, but a buyer skips (rather than
  sends) applications to sellers no longer better than her *current* match
  -- otherwise a literal reading would let a buyer "transfer" downwards
  after an earlier transfer succeeded.
* Accepting a transfer or invitation removes the buyer from her previous
  coalition (required for ``mu`` consistency).
* At invitation-sending time the seller re-checks compatibility against
  her *current* coalition; entries invalidated by later acceptances are
  dropped instead of invited.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.preferences import preferred_channels_above
from repro.core.trace import InvitationRound, TransferRound
from repro.interference.mwis import mwis_solve
from repro.obs.events import round_to_event
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = ["StageTwoResult", "transfer_and_invitation"]

#: Shared stateless no-op context manager (the unobserved fast path).
_NULL_CM = nullcontext()


@dataclass(frozen=True)
class StageTwoResult:
    """Outcome of Stage II.

    Attributes
    ----------
    matching:
        Final matching after both phases (interference-free).
    matching_after_phase1:
        Snapshot taken between the phases, for per-phase welfare accounting
        (Fig. 7 plots the cumulative welfare of Stage I / Phase 1 / Phase 2).
    transfer_rounds / invitation_rounds:
        Per-round trace records (empty when ``record_trace=False``).
    num_transfer_rounds / num_invitation_rounds:
        Round counts -- the phases' running times in time slots (Fig. 8).
    """

    matching: Matching
    matching_after_phase1: Matching
    transfer_rounds: Tuple[TransferRound, ...]
    invitation_rounds: Tuple[InvitationRound, ...]
    num_transfer_rounds: int
    num_invitation_rounds: int


def _accept_best_applicants(
    market: SpectrumMarket,
    coalition_snapshot: frozenset,
    channel: int,
    applicants: List[int],
) -> Tuple[List[int], List[int]]:
    """Split applicants into (accepted, rejected) for one seller.

    The seller keeps her whole current coalition and adds the most valuable
    interference-free set of applicants compatible with it (Algorithm 2,
    lines 12-15).  Decisions are taken against the *round-start* coalition
    snapshot: all sellers decide simultaneously, exactly like the paper's
    toy example where seller ``c`` rejects buyer 5 against her pre-transfer
    coalition even though buyer 2 leaves ``c`` in the same round.  The
    snapshot is a superset of the members who actually remain, so accepted
    sets stay interference-free.
    """
    graph = market.graph(channel)
    compatible = graph.independent_subset_greedily_compatible(
        coalition_snapshot, applicants
    )
    prices = market.channel_prices(channel)
    weights = {j: float(prices[j]) for j in compatible}
    accepted = mwis_solve(graph, weights, compatible, market.mwis_algorithm)
    accepted_set = set(accepted)
    rejected = [j for j in applicants if j not in accepted_set]
    return accepted, rejected


def transfer_and_invitation(
    market: SpectrumMarket,
    matching: Matching,
    record_trace: bool = True,
    recorder: Optional[Recorder] = None,
) -> StageTwoResult:
    """Run Stage II (Algorithm 2) starting from a Stage-I matching.

    The input matching is not mutated; a copy is evolved and returned.

    Parameters
    ----------
    market:
        The virtual-level spectrum market.
    matching:
        Stage I's interference-free matching.
    record_trace:
        Keep per-round trace records (disable for large sweeps).
    recorder:
        Observability backend (``None`` resolves to the ambient recorder).
        When live, the stage runs under a ``stage2`` span with
        ``stage2.transfer`` / ``stage2.invitation`` phase children, each
        round is emitted as a ``stage2.transfer_round`` /
        ``stage2.invitation_round`` event, and accept/reject counters
        accumulate in the metrics registry.
    """
    rec = resolve_recorder(recorder)
    if not rec.enabled:
        return _transfer_and_invitation_impl(market, matching, record_trace)
    with rec.span("stage2"):
        result = _transfer_and_invitation_impl(
            market, matching, record_trace, rec
        )
    metrics = rec.metrics
    if metrics.enabled:
        metrics.counter("stage2.transfer_rounds").inc(
            result.num_transfer_rounds
        )
        metrics.counter("stage2.invitation_rounds").inc(
            result.num_invitation_rounds
        )
    return result


def _transfer_and_invitation_impl(
    market: SpectrumMarket,
    matching: Matching,
    record_trace: bool = True,
    rec: Optional[Recorder] = None,
) -> StageTwoResult:
    observing = rec is not None and rec.enabled
    emitting = observing and rec.events.enabled
    mu = matching.copy()
    utilities = market.utilities

    # ------------------------------------------------------------------
    # Phase 1: transfer (Algorithm 2, lines 4-17)
    # ------------------------------------------------------------------
    unapplied: List[List[int]] = []
    for j in range(market.num_buyers):
        baseline = mu.buyer_utility(j, utilities)
        unapplied.append(preferred_channels_above(market, j, baseline))

    invitation_lists: List[List[int]] = [[] for _ in range(market.num_channels)]
    transfer_rounds: List[TransferRound] = []
    num_transfer_rounds = 0

    phase1_span = rec.span("stage2.transfer") if observing else _NULL_CM
    with phase1_span:
        while True:
            # Each buyer with a non-empty unapplied list sends one
            # application, skipping channels that are stale (no longer
            # strictly better than her current match).
            applications: Dict[int, List[int]] = {}
            for j in range(market.num_buyers):
                queue = unapplied[j]
                current_value = mu.buyer_utility(j, utilities)
                while queue and utilities[j, queue[0]] <= current_value:
                    queue.pop(0)
                if queue:
                    channel = queue.pop(0)
                    applications.setdefault(channel, []).append(j)
            if not applications:
                break
            num_transfer_rounds += 1

            # All sellers decide against the round-start snapshot, then
            # moves are applied together (simultaneous rounds, Section IV's
            # time-slot model).  Each buyer applies to at most one seller
            # per round, so no buyer can be accepted twice.
            snapshots = {
                channel: mu.coalition(channel) for channel in applications
            }
            accepted_moves: List[Tuple[int, int, int]] = []
            rejected_apps: List[Tuple[int, int]] = []
            pending_moves: List[Tuple[int, int]] = []
            for channel in sorted(applications):
                applicants = applications[channel]
                accepted, rejected = _accept_best_applicants(
                    market, snapshots[channel], channel, applicants
                )
                for j in accepted:
                    pending_moves.append((j, channel))
                for j in rejected:
                    invitation_lists[channel].append(j)
                    rejected_apps.append((j, channel))
            for j, channel in pending_moves:
                previous = mu.channel_of(j)
                mu.move(j, channel)
                accepted_moves.append(
                    (j, previous if previous is not None else -1, channel)
                )

            if record_trace or emitting:
                record = TransferRound(
                    round_index=num_transfer_rounds,
                    applications={
                        channel: tuple(sorted(buyers))
                        for channel, buyers in applications.items()
                    },
                    accepted=tuple(sorted(accepted_moves)),
                    rejected=tuple(sorted(rejected_apps)),
                )
                if record_trace:
                    transfer_rounds.append(record)
                if emitting:
                    rec.events.emit(round_to_event(record))
            if observing:
                rec.metrics.counter("stage2.transfers_accepted").inc(
                    len(accepted_moves)
                )
                rec.metrics.counter("stage2.transfers_rejected").inc(
                    len(rejected_apps)
                )

    matching_after_phase1 = mu.copy()

    # ------------------------------------------------------------------
    # Phase 2: invitation (Algorithm 2, lines 18-33)
    # ------------------------------------------------------------------
    # Line 19-21: screen invitation lists against the post-Phase-1
    # coalitions, dropping duplicates while preserving first-seen order.
    screened: List[List[int]] = []
    for channel in range(market.num_channels):
        listed = list(dict.fromkeys(invitation_lists[channel]))
        if listed:
            coalition = mu.coalition(channel)
            blocked = market.graph(channel).conflict_mask(coalition)
            listed = [j for j in listed if j not in coalition and not blocked[j]]
        screened.append(listed)

    invitation_rounds: List[InvitationRound] = []
    num_invitation_rounds = 0

    phase2_span = rec.span("stage2.invitation") if observing else _NULL_CM
    with phase2_span:
        while any(screened):
            num_invitation_rounds += 1
            sent: List[Tuple[int, int]] = []
            accepted_moves = []
            declined: List[Tuple[int, int]] = []
            for channel in range(market.num_channels):
                pool = screened[channel]
                if not pool:
                    continue
                prices = market.channel_prices(channel)
                # Line 24: invite the highest-price listed buyer (ties by
                # id).
                j = max(pool, key=lambda b: (prices[b], -b))
                pool.remove(j)
                graph = market.graph(channel)
                coalition = mu.coalition(channel)
                if j in coalition or graph.conflicts_with_set(j, coalition):
                    # Invalidated by an acceptance since screening; drop
                    # silently (the seller would not send a self-defeating
                    # invitation).
                    continue
                sent.append((channel, j))
                # Lines 26-30: the buyer accepts iff strictly better off.
                if utilities[j, channel] > mu.buyer_utility(j, utilities):
                    previous = mu.channel_of(j)
                    mu.move(j, channel)
                    accepted_moves.append(
                        (j, previous if previous is not None else -1, channel)
                    )
                    # Line 29: drop the new member's interfering neighbours.
                    near = graph.conflict_mask((j,))
                    screened[channel] = [k for k in pool if not near[k]]
                else:
                    declined.append((channel, j))

            if record_trace or emitting:
                record = InvitationRound(
                    round_index=num_invitation_rounds,
                    invitations=tuple(sorted(sent)),
                    accepted=tuple(sorted(accepted_moves)),
                    declined=tuple(sorted(declined)),
                )
                if record_trace:
                    invitation_rounds.append(record)
                if emitting:
                    rec.events.emit(round_to_event(record))
            if observing:
                rec.metrics.counter("stage2.invitations_sent").inc(len(sent))
                rec.metrics.counter("stage2.invitations_accepted").inc(
                    len(accepted_moves)
                )
                rec.metrics.counter("stage2.invitations_declined").inc(
                    len(declined)
                )

    return StageTwoResult(
        matching=mu,
        matching_after_phase1=matching_after_phase1,
        transfer_rounds=tuple(transfer_rounds),
        invitation_rounds=tuple(invitation_rounds),
        num_transfer_rounds=num_transfer_rounds,
        num_invitation_rounds=num_invitation_rounds,
    )
