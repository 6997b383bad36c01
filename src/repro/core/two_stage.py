"""The complete two-stage distributed matching pipeline.

:func:`run_two_stage` chains Stage I (adapted deferred acceptance) and
Stage II (transfer and invitation) and returns per-stage welfare and round
accounting, which is exactly the data plotted in the paper's Fig. 7
(cumulative social welfare per stage/phase) and Fig. 8 (running time per
stage/phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.deferred_acceptance import StageOneResult, deferred_acceptance
from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.transfer_invitation import StageTwoResult, transfer_and_invitation
from repro.engine.validation import matching_welfare
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = ["TwoStageResult", "run_two_stage", "iterate_stage_two"]


@dataclass(frozen=True)
class TwoStageResult:
    """Aggregated outcome of the two-stage algorithm on one market.

    Attributes
    ----------
    matching:
        The final (Stage II) matching.
    stage_one / stage_two:
        The individual stage results with their traces.
    welfare_stage1 / welfare_phase1 / welfare_phase2:
        *Cumulative* social welfare after Stage I, after Stage II Phase 1,
        and after Stage II Phase 2 (the final welfare) -- the three series
        of Fig. 7.
    rounds_stage1 / rounds_phase1 / rounds_phase2:
        Rounds consumed by each stage/phase -- the three series of Fig. 8.
    """

    matching: Matching
    stage_one: StageOneResult
    stage_two: StageTwoResult
    welfare_stage1: float
    welfare_phase1: float
    welfare_phase2: float
    rounds_stage1: int
    rounds_phase1: int
    rounds_phase2: int

    @property
    def social_welfare(self) -> float:
        """Final social welfare (alias of ``welfare_phase2``)."""
        return self.welfare_phase2

    @property
    def total_rounds(self) -> int:
        """Total time slots across both stages (with instantaneous, i.e.
        oracle, stage transitions; Section IV studies realistic rules)."""
        return self.rounds_stage1 + self.rounds_phase1 + self.rounds_phase2


def iterate_stage_two(
    market: SpectrumMarket,
    matching: Matching,
    max_iterations: int = 1_000,
) -> tuple:
    """Run Stage II repeatedly until it reaches a fixed point.

    A single Stage II pass has a subtle gap the paper's Proposition-4
    proof glosses over: when a Phase-2 invitation moves a buyer *out* of
    a coalition, the vacancy can re-open a profitable deviation for a
    buyer whose earlier application that very member blocked.  After a
    fresh Stage I this almost never materialises (invitations are rare),
    but when Stage II is seeded from an arbitrary feasible matching --
    e.g. warm-start re-matching in dynamic markets
    (:mod:`repro.dynamic.online`) -- it does.

    Iterating to a fixed point closes the gap: every accepted transfer or
    invitation strictly increases the moving buyer's utility and leaves
    everyone else's unchanged, so total utility strictly increases with
    any change and the loop terminates; and a fixed point admits no
    profitable unilateral deviation (any such deviation would have been
    accepted as a transfer or invitation), i.e. it is Nash-stable.

    Returns
    -------
    (matching, total_rounds, iterations):
        The fixed-point matching, the summed Stage-II rounds across
        iterations, and how many passes ran.
    """
    current = matching
    total_rounds = 0
    for iteration in range(1, max_iterations + 1):
        result = transfer_and_invitation(market, current, record_trace=False)
        total_rounds += result.num_transfer_rounds + result.num_invitation_rounds
        if result.matching == current:
            return result.matching, total_rounds, iteration
        current = result.matching
    raise AssertionError(
        "iterate_stage_two failed to reach a fixed point within "
        f"{max_iterations} iterations -- impossible unless Stage II "
        "stopped being monotone"
    )


def run_two_stage(
    market: SpectrumMarket,
    record_trace: bool = True,
    monotone_guard: bool = True,
    recorder: Optional[Recorder] = None,
) -> TwoStageResult:
    """Run Algorithm 1 followed by Algorithm 2 on ``market``.

    Parameters
    ----------
    market:
        The virtual-level spectrum market.
    record_trace:
        Keep round-by-round trace records in both stage results.
    monotone_guard:
        Stage-I seller guard (see
        :mod:`~repro.core.deferred_acceptance`).
    recorder:
        Observability backend (``None`` resolves to the ambient recorder,
        the null one by default).  When live, the run executes under a
        ``two_stage`` span whose children are the stage spans, every
        algorithm round streams to the event sink, and a
        ``two_stage.result`` event plus welfare gauges summarise the
        outcome.  The result is identical either way.

    Returns
    -------
    TwoStageResult
        Final matching plus per-stage welfare/rounds.  The matching is
        interference-free, individually rational and Nash-stable
        (Propositions 3-4; asserted by the test suite rather than at
        runtime for speed).

    The emitted event stream is locked byte-for-byte by the golden-trace
    test.
    """
    rec = resolve_recorder(recorder)
    utilities = market.utilities
    if rec.enabled:
        rec.emit(
            "two_stage.start",
            buyers=market.num_buyers,
            channels=market.num_channels,
        )
    with rec.span("two_stage"):
        stage_one = deferred_acceptance(
            market,
            record_trace=record_trace,
            monotone_guard=monotone_guard,
            recorder=rec,
        )
        stage_two = transfer_and_invitation(
            market, stage_one.matching, record_trace=record_trace, recorder=rec
        )
    result = TwoStageResult(
        matching=stage_two.matching,
        stage_one=stage_one,
        stage_two=stage_two,
        welfare_stage1=matching_welfare(utilities, stage_one.matching),
        welfare_phase1=matching_welfare(utilities, stage_two.matching_after_phase1),
        welfare_phase2=matching_welfare(utilities, stage_two.matching),
        rounds_stage1=stage_one.num_rounds,
        rounds_phase1=stage_two.num_transfer_rounds,
        rounds_phase2=stage_two.num_invitation_rounds,
    )
    if rec.enabled:
        rec.emit(
            "two_stage.result",
            welfare_stage1=result.welfare_stage1,
            welfare_phase1=result.welfare_phase1,
            welfare_phase2=result.welfare_phase2,
            rounds_stage1=result.rounds_stage1,
            rounds_phase1=result.rounds_phase1,
            rounds_phase2=result.rounds_phase2,
            matched=result.matching.num_matched(),
        )
        metrics = rec.metrics
        if metrics.enabled:
            metrics.counter("two_stage.runs").inc()
            metrics.gauge("two_stage.welfare_stage1").set(result.welfare_stage1)
            metrics.gauge("two_stage.welfare_phase1").set(result.welfare_phase1)
            metrics.gauge("two_stage.welfare_phase2").set(result.welfare_phase2)
    return result
