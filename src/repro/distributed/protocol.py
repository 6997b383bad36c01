"""End-to-end distributed matching runs.

:func:`run_distributed_matching` wires one :class:`BuyerAgent` per virtual
buyer and one :class:`SellerAgent` per channel into the time-slotted
kernel, runs to quiescence, and extracts the final matching from the
agents' local views -- cross-checking that every buyer's belief about her
seller agrees with that seller's coalition (any divergence is a protocol
bug and raises).

The returned :class:`DistributedResult` carries slot and message counts so
the transition-rule benchmark can compare the default rule's ``MN + M + N``
slot cost against the adaptive rules' much shorter runs (the paper's
"23 slots vs 7 slots" observation for the toy example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.distributed.buyer_agent import BuyerAgent
from repro.distributed.faults import FaultSchedule, PartitionedNetwork
from repro.distributed.network import Network
from repro.distributed.seller_agent import SellerAgent
from repro.distributed.simulator import MessageEvent, TimeSlottedSimulator
from repro.distributed.transition import TransitionPolicy, default_policy
from repro.engine.validation import matching_welfare, require_interference_free
from repro.errors import ProtocolError
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = [
    "DEFAULT_MAX_SLOTS",
    "DistributedResult",
    "DistributedSimulation",
    "build_distributed_simulation",
    "run_distributed_matching",
    "slot_budget",
]

#: Slot bound of a distributed run that sets neither
#: ``faults.deadline_slots`` nor ``engine.options.max_slots``.
DEFAULT_MAX_SLOTS = 1_000_000


@dataclass(frozen=True)
class DistributedResult:
    """Outcome of a message-passing run.

    Attributes
    ----------
    matching:
        Final matching assembled from the sellers' coalitions.
    slots:
        Total time slots until quiescence (the distributed running time).
    messages_sent / messages_delivered / messages_dropped:
        Wire traffic accounting from the kernel.
    social_welfare:
        Final welfare under the market's utilities.
    status:
        ``"converged"`` -- the protocol quiesced and the matching is its
        agreed outcome.  ``"degraded"`` -- the run hit its deadline under
        ``on_timeout="degrade"`` and the matching is the best
        interference-free *partial* matching salvageable from seller
        state (safety invariants validated; optimality and two-sided
        agreement are not claimed).
    crashes / restarts / messages_lost_to_crash:
        Node-fault accounting from the kernel (all zero without a
        :class:`~repro.distributed.faults.FaultSchedule`).
    partition_drops:
        Messages dropped by partitions / targeted message faults.
    recovery_slots:
        Downtime of each executed restart, in restart order (the raw
        series behind the ``sim.recovery_slots`` histogram).
    view_divergences:
        Buyer/seller view disagreements reconciled while extracting the
        matching.  Always 0 for a converged fault-free run (a divergence
        there raises :class:`~repro.errors.ProtocolError` instead).
    """

    matching: Matching
    slots: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    social_welfare: float
    #: Per-message trace (empty unless ``record_events=True``).
    events: Tuple[MessageEvent, ...] = ()
    status: str = "converged"
    crashes: int = 0
    restarts: int = 0
    messages_lost_to_crash: int = 0
    partition_drops: int = 0
    recovery_slots: Tuple[int, ...] = ()
    view_divergences: int = 0


def _extract_reconciled(
    market: SpectrumMarket,
    buyers: List[BuyerAgent],
    sellers: List["SellerAgent"],
) -> Tuple[Matching, int]:
    """Best-effort matching from possibly-inconsistent agent views.

    Faults can leave the two sides' local views divergent: a crashed
    buyer's ``Leave`` may never have reached her old seller, a partition
    can freeze a transfer mid-handshake.  Sellers own the resource, so
    seller waitlists are the source of truth; when several sellers claim
    one buyer, the buyer's own belief breaks the tie (she knows where she
    last moved), falling back to her highest-utility claimant.  Buyers no
    seller claims stay unmatched.  Every resolved disagreement is counted.

    Safety survives reconciliation by construction: each seller's waitlist
    is kept interference-free by her own commit checks, and dropping
    members of an independent set keeps it independent.
    """
    claims: dict = {}
    for seller in sellers:
        for buyer in seller.waitlist:
            claims.setdefault(buyer, []).append(seller.channel)
    matching = Matching(market.num_channels, market.num_buyers)
    divergences = 0
    for buyer_agent in buyers:
        j = buyer_agent.buyer
        belief = buyer_agent.current_channel
        claiming = claims.get(j, [])
        if belief is not None and belief in claiming:
            chosen = belief
            divergences += len(claiming) - 1
        elif claiming:
            chosen = max(
                claiming, key=lambda i: (float(market.utilities[j, i]), -i)
            )
            divergences += 1
        else:
            if belief is not None:
                divergences += 1
            continue
        matching.match(j, chosen)
    return matching, divergences


@dataclass
class DistributedSimulation:
    """A built-but-not-finalised distributed run.

    Produced by :func:`build_distributed_simulation`; holds the simulator
    plus the agent lists and enough context to extract the final
    :class:`DistributedResult` once the kernel quiesces.  Splitting
    construction from finalisation is what lets the durable runtime
    (:mod:`repro.runtime`) restore a checkpointed simulator into a
    freshly built population and then finalise exactly like an
    uninterrupted run would.
    """

    market: SpectrumMarket
    simulator: TimeSlottedSimulator
    buyers: List[BuyerAgent]
    sellers: List[SellerAgent]
    recorder: Recorder
    seed: int
    reliable_transport: bool
    warm_start: bool
    #: Strict two-sided extraction applies only to fault-free runs.
    fault_free: bool

    def emit_run_start(self) -> None:
        """Emit the ``distributed.run_start`` lifecycle event."""
        if self.recorder.enabled:
            self.recorder.emit(
                "distributed.run_start",
                buyers=self.market.num_buyers,
                channels=self.market.num_channels,
                seed=self.seed,
                warm_start=self.warm_start,
                reliable_transport=self.reliable_transport,
            )

    def finalize(self, slots: int) -> DistributedResult:
        """Extract the result and emit ``distributed.run_end``.

        ``slots`` is the kernel's return value from ``run()``.  Fault-free
        converged runs use the strict historical extraction (buyer and
        seller views must agree exactly); fault or timed-out runs use the
        reconciling extraction.  Safety is validated on every path.
        """
        market = self.market
        simulator = self.simulator
        divergences = 0
        if self.fault_free and not simulator.timed_out:
            # Fault-free convergence: the strict historical path, unchanged.
            matching = Matching(market.num_channels, market.num_buyers)
            for seller in self.sellers:
                for buyer in sorted(seller.waitlist):
                    matching.match(buyer, seller.channel)
            # Cross-check both sides' local views.
            for buyer_agent in self.buyers:
                believed = buyer_agent.current_channel
                actual = matching.channel_of(buyer_agent.buyer)
                if believed != actual:
                    raise ProtocolError(
                        f"buyer {buyer_agent.buyer} believes she is matched "
                        f"to {believed} but sellers record {actual}"
                    )
        else:
            matching, divergences = _extract_reconciled(
                market, self.buyers, self.sellers
            )
        require_interference_free(
            market,
            matching,
            error=ProtocolError,
            context="distributed run output",
        )

        effective_network = simulator.network
        partition_drops = 0
        if isinstance(effective_network, PartitionedNetwork):
            partition_drops = (
                effective_network.partition_drops
                + effective_network.targeted_drops
            )
        result = DistributedResult(
            matching=matching,
            slots=slots,
            messages_sent=simulator.messages_sent,
            messages_delivered=simulator.messages_delivered,
            messages_dropped=simulator.messages_dropped,
            social_welfare=matching_welfare(market.utilities, matching),
            events=simulator.events,
            status="degraded" if simulator.timed_out else "converged",
            crashes=simulator.crashes,
            restarts=simulator.restarts,
            messages_lost_to_crash=simulator.messages_lost_to_crash,
            partition_drops=partition_drops,
            recovery_slots=simulator.recovery_slots,
            view_divergences=divergences,
        )
        rec = self.recorder
        if rec.enabled:
            rec.emit(
                "distributed.run_end",
                slots=result.slots,
                status=result.status,
                messages_sent=result.messages_sent,
                messages_delivered=result.messages_delivered,
                messages_dropped=result.messages_dropped,
                social_welfare=result.social_welfare,
                matched=matching.num_matched(),
                crashes=result.crashes,
                restarts=result.restarts,
                messages_lost_to_crash=result.messages_lost_to_crash,
            )
        return result


def build_distributed_simulation(
    market: SpectrumMarket,
    policy: Optional[TransitionPolicy] = None,
    network: Optional[Network] = None,
    seed: int = 0,
    reliable_transport: bool = False,
    retransmit_interval: int = 4,
    initial_matching: Optional[Matching] = None,
    record_events: bool = False,
    recorder: Optional[Recorder] = None,
    fault_schedule: Optional[FaultSchedule] = None,
) -> DistributedSimulation:
    """Wire agents and kernel for a distributed run without running it.

    Construction is deterministic in its arguments, which is what makes
    checkpoint/resume sound: the durable runtime rebuilds the identical
    population from the run manifest, restores the kernel snapshot into
    it, and continues.  Does *not* emit ``distributed.run_start`` -- call
    :meth:`DistributedSimulation.emit_run_start` for fresh runs (resumed
    runs already carry the original event in their trace).
    """
    if policy is None:
        policy = default_policy()
    rec = resolve_recorder(recorder)
    if initial_matching is not None:
        if (
            initial_matching.num_buyers != market.num_buyers
            or initial_matching.num_channels != market.num_channels
        ):
            raise ProtocolError(
                "initial_matching dimensions do not match the market"
            )
        require_interference_free(
            market,
            initial_matching,
            error=ProtocolError,
            context="initial_matching",
        )
        buyers = [
            BuyerAgent(
                j, market, policy,
                initial_channel=initial_matching.channel_of(j),
            )
            for j in range(market.num_buyers)
        ]
        sellers = [
            SellerAgent(
                i, market, policy,
                initial_coalition=set(initial_matching.coalition(i)),
            )
            for i in range(market.num_channels)
        ]
    else:
        buyers = [
            BuyerAgent(j, market, policy) for j in range(market.num_buyers)
        ]
        sellers = [
            SellerAgent(i, market, policy) for i in range(market.num_channels)
        ]
    agents = [*buyers, *sellers]
    if reliable_transport:
        from repro.distributed.transport import wrap_reliable

        agents = wrap_reliable(agents, retransmit_interval)
    simulator = TimeSlottedSimulator(
        agents=agents,
        network=network,
        seed=seed,
        record_events=record_events,
        recorder=rec,
        fault_schedule=fault_schedule,
    )
    return DistributedSimulation(
        market=market,
        simulator=simulator,
        buyers=buyers,
        sellers=sellers,
        recorder=rec,
        seed=seed,
        reliable_transport=reliable_transport,
        warm_start=initial_matching is not None,
        fault_free=fault_schedule is None,
    )


def slot_budget(
    deadline_slots: Optional[int], max_slots: int, on_timeout: str
) -> Tuple[int, str]:
    """The simulator's slot bound and timeout mode.

    The bound is ``deadline_slots`` when set, else ``max_slots``.
    ``on_timeout="degrade"`` maps to the kernel's ``"stop"`` (return the
    best partial matching), ``"raise"`` to ``"raise"``.
    """
    if on_timeout not in ("raise", "degrade"):
        raise ProtocolError(
            f"on_timeout must be 'raise' or 'degrade', got {on_timeout!r}"
        )
    bound = deadline_slots if deadline_slots is not None else max_slots
    return int(bound), ("stop" if on_timeout == "degrade" else "raise")


def run_distributed_matching(
    market: SpectrumMarket,
    policy: Optional[TransitionPolicy] = None,
    network: Optional[Network] = None,
    seed: int = 0,
    max_slots: int = DEFAULT_MAX_SLOTS,
    reliable_transport: bool = False,
    retransmit_interval: int = 4,
    initial_matching: Optional[Matching] = None,
    record_events: bool = False,
    recorder: Optional[Recorder] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    deadline_slots: Optional[int] = None,
    on_timeout: str = "raise",
) -> DistributedResult:
    """Run the full message-level protocol on ``market``.

    Parameters
    ----------
    market:
        The virtual-level spectrum market.
    policy:
        Transition policy; the paper's conservative default rule if omitted.
    network:
        Delivery model; reliable synchronous delivery if omitted.
    seed:
        Seed for the simulation RNG (only consulted by randomised
        networks; the protocol itself is deterministic).
    max_slots:
        Safety bound handed to the kernel.
    reliable_transport:
        Wrap every agent in the ARQ layer of
        :mod:`repro.distributed.transport`, making the protocol live over
        lossy networks (message counters then include transport frames
        and acknowledgements).
    retransmit_interval:
        ARQ retransmission period in slots (ignored unless
        ``reliable_transport``).
    initial_matching:
        Warm start (dynamic re-matching, see :mod:`repro.dynamic`): every
        agent begins directly in Stage II with this interference-free
        matching as its state -- buyers try to transfer upward, sellers
        accept compatible applications and invite rejects.  ``None``
        (default) runs the full two-stage protocol from scratch.
    recorder:
        Observability backend (``None`` resolves to the ambient recorder).
        Passed through to the kernel for per-slot metrics, and used to
        frame the run with ``distributed.run_start`` /
        ``distributed.run_end`` lifecycle events.
    fault_schedule:
        Declarative node/link faults
        (:class:`~repro.distributed.faults.FaultSchedule`): crash/restart
        agents, partition the population, drop or delay targeted message
        types.  Partitions and message faults are enforced by wrapping
        ``network`` in a :class:`~repro.distributed.faults.
        PartitionedNetwork` automatically.  Fault runs use a reconciling
        matching extraction (seller waitlists are authoritative; buyer
        beliefs break ties) instead of the strict two-sided cross-check,
        because faults can legitimately leave views divergent.
    deadline_slots:
        Slot budget for graceful degradation; defaults to ``max_slots``.
    on_timeout:
        ``"raise"`` (default): exceeding the budget raises
        :class:`~repro.errors.SimulationError`, as before.  ``"degrade"``:
        return a :class:`DistributedResult` with ``status="degraded"``
        carrying the best interference-free partial matching salvageable
        from seller state -- for markets that must produce *some* safe
        assignment under unrecoverable faults.

    Returns
    -------
    DistributedResult
        Final matching plus run and fault accounting.

    Raises
    ------
    ProtocolError
        If buyers' and sellers' final local views disagree on a fault-free
        run (would indicate a protocol bug) or the final matching violates
        interference (safety is validated on every path, degraded
        included).
    SimulationError
        If the run fails to quiesce within its slot budget and
        ``on_timeout="raise"`` (e.g. under a lossy network without the
        ARQ transport, which the bare protocol does not tolerate).
    """
    bound, mode = slot_budget(deadline_slots, max_slots, on_timeout)
    sim = build_distributed_simulation(
        market,
        policy=policy,
        network=network,
        seed=seed,
        reliable_transport=reliable_transport,
        retransmit_interval=retransmit_interval,
        initial_matching=initial_matching,
        record_events=record_events,
        recorder=recorder,
        fault_schedule=fault_schedule,
    )
    sim.emit_run_start()
    return sim.finalize(sim.simulator.run(max_slots=bound, on_timeout=mode))
