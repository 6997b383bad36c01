"""Online re-matching across market epochs.

Given the epoch stream of :class:`~repro.dynamic.generator.
DynamicMarketGenerator`, a provider must refresh the matching each epoch.
Two strategies are implemented:

* **COLD** -- forget history, run the full two-stage algorithm on the new
  snapshot.  Maximises per-epoch welfare but reassigns buyers freely:
  a buyer whose situation did not change may still be bounced to another
  channel, which in practice means re-tuning radios and disrupting
  traffic.
* **WARM** -- carry the previous channel of every surviving buyer (always
  interference-feasible because locations are immutable) as a virtual
  Stage-I outcome, then run only Stage II: arrivals and unhappy
  incumbents *transfer* in, sellers *invite* previously rejected buyers.
  No incumbent is ever evicted, so churn is limited to voluntary
  improvements.

:class:`OnlineMatcher` tracks assignments by persistent buyer id and
reports per-epoch welfare, churn, and round counts so the warm-vs-cold
trade-off can be quantified (``benchmarks/bench_dynamic.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.matching import Matching
from repro.core.two_stage import iterate_stage_two, run_two_stage
from repro.dynamic.generator import Epoch
from repro.engine.validation import matching_welfare, require_interference_free
from repro.errors import SpectrumMatchingError
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = ["RematchStrategy", "EpochOutcome", "OnlineMatcher"]


class RematchStrategy(str, enum.Enum):
    """How the matcher reacts to a new epoch."""

    COLD = "cold"
    WARM = "warm"


@dataclass(frozen=True)
class EpochOutcome:
    """One epoch's re-matching result.

    Attributes
    ----------
    epoch_index:
        The epoch this outcome belongs to.
    matching:
        The epoch's final matching (rows of the epoch's market).
    social_welfare:
        Welfare under the epoch's utilities.
    churned / persistent:
        Number of surviving buyers whose channel changed vs the number of
        surviving buyers considered (arrivals and departures never count
        as churn).
    rounds:
        Algorithm rounds spent this epoch (Stage I + II for COLD, Stage II
        only for WARM).
    """

    epoch_index: int
    matching: Matching
    social_welfare: float
    churned: int
    persistent: int
    rounds: int

    @property
    def churn_rate(self) -> float:
        """Fraction of surviving buyers reassigned (0 when none survive)."""
        if self.persistent == 0:
            return 0.0
        return self.churned / self.persistent


class OnlineMatcher:
    """Epoch-by-epoch matcher with persistent-identity bookkeeping.

    ``recorder`` (``None`` resolves to the ambient recorder at each step)
    turns every epoch into a ``dynamic.epoch`` lifecycle event with its
    welfare/churn/round outcome, plus churn and round counters.
    """

    def __init__(
        self,
        strategy: RematchStrategy = RematchStrategy.WARM,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.strategy = RematchStrategy(strategy)
        self._recorder = recorder
        #: Previous epoch's channel per global buyer id.
        self._assignment: Dict[int, int] = {}
        self._last_epoch_index: Optional[int] = None

    # ------------------------------------------------------------------
    # Core step
    # ------------------------------------------------------------------
    def step(self, epoch: Epoch) -> EpochOutcome:
        """Re-match one epoch and update the persistent assignment."""
        if (
            self._last_epoch_index is not None
            and epoch.index <= self._last_epoch_index
        ):
            raise SpectrumMatchingError(
                f"epochs must be fed in order: got {epoch.index} after "
                f"{self._last_epoch_index}"
            )

        if self.strategy is RematchStrategy.COLD or not self._assignment:
            matching, rounds = self._cold(epoch)
        else:
            matching, rounds = self._warm(epoch)

        churned, persistent = self._account_churn(epoch, matching)
        self._remember(epoch, matching)
        self._last_epoch_index = epoch.index
        outcome = EpochOutcome(
            epoch_index=epoch.index,
            matching=matching,
            social_welfare=matching_welfare(epoch.market.utilities, matching),
            churned=churned,
            persistent=persistent,
            rounds=rounds,
        )
        rec = resolve_recorder(self._recorder)
        if rec.enabled:
            rec.emit(
                "dynamic.epoch",
                epoch=epoch.index,
                strategy=self.strategy.value,
                buyers=epoch.market.num_buyers,
                arrived=len(epoch.arrived),
                departed=len(epoch.departed),
                social_welfare=outcome.social_welfare,
                churned=churned,
                persistent=persistent,
                rounds=rounds,
            )
            metrics = rec.metrics
            if metrics.enabled:
                metrics.counter("dynamic.epochs").inc()
                metrics.counter("dynamic.churned").inc(churned)
                metrics.counter("dynamic.rounds").inc(rounds)
        return outcome

    def run(self, epochs: List[Epoch]) -> List[EpochOutcome]:
        """Convenience: step through a whole epoch list.

        Emits a closing ``dynamic.run_end`` event so the live run
        registry can mark the dynamic run finished (per-epoch ``step``
        calls only ever heartbeat it).
        """
        outcomes = [self.step(epoch) for epoch in epochs]
        rec = resolve_recorder(self._recorder)
        if rec.enabled and outcomes:
            rec.emit(
                "dynamic.run_end",
                strategy=self.strategy.value,
                epochs=len(outcomes),
                social_welfare=outcomes[-1].social_welfare,
                total_churned=sum(o.churned for o in outcomes),
                total_rounds=sum(o.rounds for o in outcomes),
            )
        return outcomes

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------
    def _cold(self, epoch: Epoch) -> Tuple[Matching, int]:
        result = run_two_stage(epoch.market, record_trace=False)
        return result.matching, result.total_rounds

    def _warm(self, epoch: Epoch) -> Tuple[Matching, int]:
        market = epoch.market
        seed = Matching(market.num_channels, market.num_buyers)
        for row, global_id in enumerate(epoch.buyer_ids):
            channel = self._assignment.get(global_id)
            if channel is None:
                continue
            # Drift can zero out the carried channel's value; holding a
            # worthless channel equals being unmatched, so release it and
            # let Stage II place the buyer afresh.
            if market.price(channel, row) <= 0.0:
                continue
            seed.match(row, channel)
        # Carried assignments are mutually interference-free: survivors'
        # pairwise geometry is unchanged and the previous matching was
        # feasible.  Defensive check (cheap at these sizes):
        require_interference_free(
            market,
            seed,
            error=SpectrumMatchingError,
            context="warm-start seed (generator invariant broken)",
        )
        # Iterate Stage II to a fixed point: a single pass from an
        # arbitrary seed can miss Nash stability (see iterate_stage_two's
        # docstring); the fixed point provably cannot.
        matching, rounds, _iterations = iterate_stage_two(market, seed)
        return matching, rounds

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe checkpoint of the matcher's persistent state.

        The matcher is a pure function of (strategy, carried assignment,
        epoch cursor) and the epoch stream, so this is the entire state a
        crash-consistent resume needs (:mod:`repro.runtime`).
        """
        return {
            "strategy": self.strategy.value,
            "assignment": {
                str(buyer): channel
                for buyer, channel in sorted(self._assignment.items())
            },
            "last_epoch_index": self._last_epoch_index,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Reset the matcher from a :meth:`snapshot` checkpoint."""
        self.strategy = RematchStrategy(state["strategy"])
        self._assignment = {
            int(buyer): int(channel)
            for buyer, channel in state["assignment"].items()
        }
        last = state["last_epoch_index"]
        self._last_epoch_index = None if last is None else int(last)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _account_churn(
        self, epoch: Epoch, matching: Matching
    ) -> Tuple[int, int]:
        """Count surviving, previously *matched* buyers who were moved.

        Arrivals and previously unmatched buyers never count: gaining a
        channel is a win, not a disruption.  Losing or changing one is.
        """
        if self._last_epoch_index is None:
            return 0, 0  # first epoch: nobody is persistent yet
        churned = 0
        persistent = 0
        arrived = set(epoch.arrived)
        for row, global_id in enumerate(epoch.buyer_ids):
            if global_id in arrived:
                continue
            previous = self._assignment.get(global_id)
            if previous is None:
                continue
            persistent += 1
            if matching.channel_of(row) != previous:
                churned += 1
        return churned, persistent

    def _remember(self, epoch: Epoch, matching: Matching) -> None:
        self._assignment = {}
        for row, global_id in enumerate(epoch.buyer_ids):
            channel = matching.channel_of(row)
            if channel is not None:
                self._assignment[global_id] = channel
