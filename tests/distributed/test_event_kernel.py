"""Differential tests of the event-driven kernel against polling.

The kernel steps an agent only when a message is due for it or when the
slot it declared through ``next_wake`` has come.  The reference is the
same kernel with every protocol agent's ``next_wake`` patched back to the
base ``Agent.next_wake`` (``now + 1``), which steps every agent in every
slot.  Skipped steps must be no-ops, so both kernels must produce the
same result, message trace, live event stream and counters.  Unobserved
(no live recorder, no ``on_slot`` hook) the kernel also jumps over the
slots where nothing is due; such a run must return the same result.

The ``SPECTRUM_CHAOS_SEED`` environment variable offsets every seed used
here, as in ``test_chaos.py``; CI runs this file under the same seed
families.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.deferred_acceptance import deferred_acceptance
from repro.distributed.buyer_agent import BuyerAgent
from repro.distributed.faults import (
    CrashFault,
    FaultSchedule,
    PartitionFault,
    RestartMode,
)
from repro.distributed.network import DelayedNetwork, LossyNetwork
from repro.distributed.protocol import (
    build_distributed_simulation,
    run_distributed_matching,
)
from repro.distributed.seller_agent import SellerAgent
from repro.distributed.simulator import Agent, SlotContext
from repro.distributed.transition import (
    adaptive_policy,
    default_policy,
    neighbor_rule_policy,
)
from repro.distributed.transport import ReliableAgent
from repro.obs import NULL_RECORDER, ListEventSink, MetricsRegistry, Recorder
from repro.workloads.scenarios import paper_simulation_market

#: CI offsets this to run the whole file under several seed families.
BASE_SEED = int(os.environ.get("SPECTRUM_CHAOS_SEED", "0"))

PROTOCOL_AGENTS = (BuyerAgent, SellerAgent, ReliableAgent)

POLICIES = {
    "default": default_policy,
    "adaptive": adaptive_policy,
    "neighbor": neighbor_rule_policy,
}

NETWORKS = {
    "reliable": lambda: None,
    "delay0-1": lambda: DelayedNetwork(0, 1),
    "delay1-3": lambda: DelayedNetwork(1, 3),
}

#: Event families the kernel and ``run_distributed_matching`` emit.
STREAM_PREFIXES = ("sim.", "msg.", "distributed.")

#: Far above any run here; a missed wake that stalls a run then fails
#: fast instead of idling towards ``run_distributed_matching``'s bound.
MAX_SLOTS = 5_000


@contextmanager
def polling():
    """Step every protocol agent in every slot (the reference kernel)."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in PROTOCOL_AGENTS:
            patch.setattr(cls, "next_wake", Agent.next_wake)
        yield


def market_for(num_buyers: int, num_channels: int, seed: int):
    return paper_simulation_market(
        num_buyers, num_channels, np.random.default_rng([91, BASE_SEED, seed])
    )


def observed_run(market, **kwargs):
    """One run with a live recorder: (result, event stream, counters).

    ``MAX_SLOTS`` bounds the run unless the case names its own bound.
    """
    recorder = Recorder(events=ListEventSink(), metrics=MetricsRegistry())
    outcome = run_distributed_matching(
        market,
        recorder=recorder,
        **{"max_slots": MAX_SLOTS, **kwargs},
    )
    stream = [
        event
        for event in recorder.events.events
        if event["event"].startswith(STREAM_PREFIXES)
    ]
    return outcome, stream, recorder.metrics.snapshot()["counters"]


def unobserved_run(market, **kwargs):
    """The same run on the null recorder, where idle slots are skipped."""
    return run_distributed_matching(
        market,
        recorder=NULL_RECORDER,
        **{"max_slots": MAX_SLOTS, **kwargs},
    )


def assert_matches_polling(market, **kwargs):
    outcome, stream, counters = observed_run(market, **kwargs)
    with polling():
        ref_outcome, ref_stream, ref_counters = observed_run(market, **kwargs)
    assert outcome == ref_outcome
    assert stream == ref_stream
    assert counters == ref_counters
    assert unobserved_run(market, **kwargs) == ref_outcome
    return outcome


@contextmanager
def counting_slots(simulator):
    """Count the slots ``simulator`` executes (``run_slot`` calls)."""
    executed = []
    run_slot = simulator.run_slot

    def counted():
        executed.append(simulator.now)
        run_slot()

    simulator.run_slot = counted
    try:
        yield executed
    finally:
        del simulator.run_slot


class TestMatchesPollingKernel:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("num_buyers", [12, 30])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_policy_network_grid(self, policy, network, num_buyers, seed):
        market = market_for(num_buyers, 4, seed=100 * seed + num_buyers)
        assert_matches_polling(
            market,
            policy=POLICIES[policy](),
            network=NETWORKS[network](),
            seed=BASE_SEED + seed,
        )

    def test_buyer_crash_with_checkpoint_restart(self):
        market = market_for(20, 4, seed=1)
        schedule = FaultSchedule(
            crashes=[
                CrashFault("buyer:1", crash_slot=3, restart_slot=11),
                CrashFault("buyer:4", crash_slot=6, restart_slot=90),
            ]
        )
        result = assert_matches_polling(
            market,
            policy=default_policy(),
            network=DelayedNetwork(0, 1),
            seed=BASE_SEED,
            fault_schedule=schedule,
            max_slots=300,
            on_timeout="degrade",
        )
        assert result.crashes == 2 and result.restarts == 2

    def test_seller_crash_with_amnesia_restart(self):
        market = market_for(20, 4, seed=2)
        schedule = FaultSchedule(
            crashes=[
                CrashFault(
                    "seller:2",
                    crash_slot=4,
                    restart_slot=30,
                    mode=RestartMode.AMNESIA,
                )
            ]
        )
        result = assert_matches_polling(
            market,
            policy=adaptive_policy(),
            seed=BASE_SEED,
            fault_schedule=schedule,
            max_slots=300,
            on_timeout="degrade",
        )
        assert result.restarts == 1

    def test_partition(self):
        market = market_for(20, 4, seed=3)
        schedule = FaultSchedule(
            partitions=[
                PartitionFault(
                    groups=(frozenset({"buyer:0", "buyer:1", "seller:0"}),),
                    start_slot=2,
                    end_slot=40,
                )
            ]
        )
        result = assert_matches_polling(
            market,
            policy=neighbor_rule_policy(),
            network=DelayedNetwork(1, 3),
            seed=BASE_SEED,
            fault_schedule=schedule,
            max_slots=300,
            on_timeout="degrade",
        )
        assert result.partition_drops > 0

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_warm_start(self, policy):
        market = market_for(30, 4, seed=4)
        assert_matches_polling(
            market,
            policy=POLICIES[policy](),
            network=DelayedNetwork(0, 1),
            seed=BASE_SEED,
            initial_matching=deferred_acceptance(market).matching,
        )

    @pytest.mark.parametrize("policy", ["default", "adaptive"])
    def test_arq_over_lossy_network(self, policy):
        market = market_for(20, 4, seed=5)
        result = assert_matches_polling(
            market,
            policy=POLICIES[policy](),
            network=LossyNetwork(0.1),
            seed=BASE_SEED,
            reliable_transport=True,
            fault_schedule=FaultSchedule(
                crashes=[CrashFault("buyer:3", crash_slot=5, restart_slot=15)]
            ),
            max_slots=400,
            on_timeout="degrade",
        )
        assert result.messages_dropped > 0


# ----------------------------------------------------------------------
# The next_wake contract
# ----------------------------------------------------------------------
@contextmanager
def contract_checked():
    """After every protocol-agent step, probe the slot the kernel skips.

    When the agent's next wake is ``None`` or later than ``now + 1``, step
    it at ``now + 1`` with an empty inbox on a recording context, then
    restore it: the probe must send nothing and leave ``snapshot()``
    unchanged.  Yields the ids of the probed agents.
    """
    probes = []
    probing = []  # non-empty while a probe runs: no nested probes
    with pytest.MonkeyPatch.context() as patch:
        for cls in PROTOCOL_AGENTS:

            def checked(self, inbox, ctx, _step=cls.step):
                _step(self, inbox, ctx)
                wake = self.next_wake(ctx.now)
                if probing or (wake is not None and wake <= ctx.now + 1):
                    return
                before = self.snapshot()
                sent = []
                probe = SlotContext(
                    now=ctx.now + 1,
                    rng=np.random.default_rng(0),
                    _send=lambda dst, message: sent.append((dst, message)),
                )
                probing.append(self)
                try:
                    _step(self, [], probe)
                finally:
                    probing.pop()
                after = self.snapshot()
                self.restore(before)
                assert sent == [], f"{self.agent_id} sent {sent} while asleep"
                assert after == before, f"{self.agent_id} changed while asleep"
                probes.append(self.agent_id)

            patch.setattr(cls, "step", checked)
        yield probes


class TestNextWakeContract:
    @pytest.mark.parametrize("network", ["reliable", "delay1-3"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_sleeping_agents_are_noops(self, policy, network):
        market = market_for(15, 3, seed=6)
        with contract_checked() as probes:
            run_distributed_matching(
                market,
                policy=POLICIES[policy](),
                network=NETWORKS[network](),
                seed=BASE_SEED,
                max_slots=MAX_SLOTS,
            )
        assert probes

    def test_sleeping_agents_are_noops_under_faults_and_arq(self):
        market = market_for(15, 3, seed=7)
        schedule = FaultSchedule(
            crashes=[
                CrashFault("buyer:2", crash_slot=3, restart_slot=9),
                CrashFault("seller:1", crash_slot=5, restart_slot=12),
            ]
        )
        with contract_checked() as probes:
            run_distributed_matching(
                market,
                policy=adaptive_policy(),
                network=LossyNetwork(0.1),
                seed=BASE_SEED,
                reliable_transport=True,
                fault_schedule=schedule,
                max_slots=300,
                on_timeout="degrade",
            )
        assert probes

    def test_sleeping_warm_start_agents_are_noops(self):
        market = market_for(20, 4, seed=8)
        with contract_checked() as probes:
            run_distributed_matching(
                market,
                policy=default_policy(),
                initial_matching=deferred_acceptance(market).matching,
                max_slots=MAX_SLOTS,
            )
        assert probes


class TestStepCount:
    def test_default_rule_steps_under_one_percent_of_agent_slots(self):
        """At N=400, M=8 the default rule idles ~MN slots; only agents
        with work are stepped."""
        market = market_for(400, 8, seed=9)
        recorder = Recorder(metrics=MetricsRegistry())
        result = run_distributed_matching(
            market, policy=default_policy(), recorder=recorder, max_slots=MAX_SLOTS
        )
        steps = recorder.metrics.histogram("sim.agent_step_s").count
        agent_slots = result.slots * (market.num_buyers + market.num_channels)
        assert result.slots >= market.num_buyers * market.num_channels
        assert 0 < steps < 0.01 * agent_slots


class TestIdleSlotSkip:
    def test_default_rule_executes_few_slots_unobserved(self):
        """At N=400, M=8 a run lasts thousands of slots, but nothing is
        due in almost all of them."""
        market = market_for(400, 8, seed=9)
        observed = run_distributed_matching(
            market,
            policy=default_policy(),
            recorder=Recorder(metrics=MetricsRegistry()),
            max_slots=MAX_SLOTS,
        )
        sim = build_distributed_simulation(
            market, policy=default_policy(), max_slots=MAX_SLOTS
        )
        with counting_slots(sim.simulator) as executed:
            result = sim.finalize(sim.run())
        assert result == observed
        assert result.slots >= market.num_buyers * market.num_channels
        assert 0 < len(executed) <= 30

    def test_deadlocked_partition_reaches_its_bound_at_once(self):
        """Every buyer is cut off from every seller from slot 4 on:
        nothing is in flight or armed after the partition bites, so the
        run jumps to its bound instead of stepping 10**6 empty slots."""
        market = market_for(10, 3, seed=10)
        buyers = frozenset(f"buyer:{j}" for j in range(10))
        schedule = FaultSchedule(
            partitions=[PartitionFault(groups=(buyers,), start_slot=4)]
        )
        sim = build_distributed_simulation(
            market,
            seed=BASE_SEED,
            fault_schedule=schedule,
            max_slots=10**6,
            on_timeout="degrade",
        )
        with counting_slots(sim.simulator) as executed:
            slots = sim.run()
        assert slots == 10**6
        assert sim.simulator.timed_out
        assert len(executed) < 100
        assert sim.finalize(slots).status == "degraded"

    @pytest.mark.parametrize("watcher", ["recorder", "on_slot"])
    def test_watched_runs_visit_every_slot(self, watcher):
        """A live recorder records every slot and the durable runtime's
        ``on_slot`` hook writes a WAL record per slot."""
        market = market_for(12, 3, seed=11)
        hooked = []

        def on_slot(simulator):
            hooked.append(simulator.now)

        if watcher == "recorder":
            recorder, on_slot = Recorder(metrics=MetricsRegistry()), None
        else:
            recorder = None
        sim = build_distributed_simulation(market, recorder=recorder)
        with counting_slots(sim.simulator) as executed:
            slots = sim.run(on_slot=on_slot)
        assert executed == list(range(slots))
        if watcher == "on_slot":
            assert hooked == list(range(1, slots + 1))

    def test_next_node_event_slot(self):
        """The skip's bound from the fault schedule: the first crash or
        restart slot at or after the asked slot."""
        schedule = FaultSchedule(
            crashes=[
                CrashFault("buyer:1", crash_slot=12),
                CrashFault("seller:0", crash_slot=5, restart_slot=9),
            ]
        )
        assert [
            schedule.next_node_event_slot(slot)
            for slot in (0, 5, 6, 9, 10, 12, 13)
        ] == [5, 5, 9, 9, 12, 12, None]
        assert FaultSchedule().next_node_event_slot(0) is None
