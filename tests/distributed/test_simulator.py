"""Tests for the generic time-slotted simulation kernel.

These deliberately use tiny ad-hoc protocols unrelated to spectrum
matching: the kernel must stand on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest

from repro.distributed.messages import Message
from repro.distributed.network import DelayedNetwork
from repro.distributed.simulator import Agent, SlotContext, TimeSlottedSimulator
from repro.errors import SimulationError
from repro.obs import ListEventSink, Recorder


@dataclass(frozen=True)
class Ping(Message):
    payload: int


class Echo(Agent):
    """Replies to every Ping with payload+1; done when idle."""

    def __init__(self, agent_id: str, priority: int = 1) -> None:
        super().__init__(agent_id, priority=priority)
        self.seen: List[int] = []

    def step(self, inbox, ctx):
        for message in inbox:
            self.seen.append(message.payload)
            ctx.send(message.sender, Ping(self.agent_id, message.payload + 1))

    def is_done(self):
        return True


class Counter(Agent):
    """Sends `budget` pings to a target, one per slot; collects replies."""

    def __init__(self, agent_id: str, target: str, budget: int) -> None:
        super().__init__(agent_id, priority=0)
        self.target = target
        self.budget = budget
        self.replies: List[int] = []

    def step(self, inbox, ctx):
        for message in inbox:
            self.replies.append(message.payload)
        if self.budget > 0:
            self.budget -= 1
            ctx.send(self.target, Ping(self.agent_id, self.budget))

    def is_done(self):
        return self.budget == 0


class TestKernelBasics:
    def test_request_reply_round_trip(self):
        counter = Counter("c", "e", budget=3)
        echo = Echo("e")
        sim = TimeSlottedSimulator([counter, echo])
        slots = sim.run()
        assert counter.replies == [3, 2, 1]  # each payload echoed +1
        assert echo.seen == [2, 1, 0]
        # 3 send slots + 1 drain slot for the last reply.
        assert slots == 4
        assert sim.messages_sent == 6
        assert sim.messages_delivered == 6
        assert sim.messages_dropped == 0

    def test_priority_enables_same_slot_processing(self):
        # Echo has higher priority number -> steps after Counter, so a ping
        # sent in slot t is echoed in slot t.
        counter = Counter("c", "e", budget=1)
        echo = Echo("e", priority=1)
        sim = TimeSlottedSimulator([counter, echo])
        sim.run_slot()
        assert echo.seen == [0]

    def test_duplicate_agent_ids_rejected(self):
        with pytest.raises(SimulationError):
            TimeSlottedSimulator([Echo("x"), Echo("x")])

    def test_empty_population_rejected(self):
        with pytest.raises(SimulationError):
            TimeSlottedSimulator([])

    def test_unknown_destination_rejected(self):
        class Chatter(Agent):
            def step(self, inbox, ctx):
                ctx.send("ghost", Ping(self.agent_id, 0))

            def is_done(self):
                return False

        sim = TimeSlottedSimulator([Chatter("a")])
        with pytest.raises(SimulationError):
            sim.run_slot()

    def test_max_slots_raises_for_livelock(self):
        class Restless(Agent):
            def step(self, inbox, ctx):
                pass

            def is_done(self):
                return False

        sim = TimeSlottedSimulator([Restless("r")])
        with pytest.raises(SimulationError):
            sim.run(max_slots=10)

    def test_run_after_finish_rejected(self):
        sim = TimeSlottedSimulator([Echo("e")])
        sim.run()
        with pytest.raises(SimulationError):
            sim.run_slot()

    def test_agent_lookup(self):
        echo = Echo("e")
        sim = TimeSlottedSimulator([echo])
        assert sim.agent("e") is echo
        with pytest.raises(SimulationError):
            sim.agent("nope")


class TestDelayedDelivery:
    def test_fixed_delay_defers_processing(self):
        counter = Counter("c", "e", budget=1)
        echo = Echo("e")
        sim = TimeSlottedSimulator([counter, echo], network=DelayedNetwork(2, 2))
        sim.run()
        assert echo.seen == [0]
        assert counter.replies == [1]

    def test_delay_increases_slot_count(self):
        def run(delay):
            counter = Counter("c", "e", budget=2)
            sim = TimeSlottedSimulator(
                [counter, Echo("e")], network=DelayedNetwork(delay, delay)
            )
            return sim.run()

        assert run(3) > run(0)

    def test_random_delay_is_seed_deterministic(self):
        def run(seed):
            counter = Counter("c", "e", budget=5)
            sim = TimeSlottedSimulator(
                [counter, Echo("e")],
                network=DelayedNetwork(1, 4),
                seed=seed,
            )
            slots = sim.run()
            return slots, tuple(counter.replies)

        assert run(9) == run(9)


class Sleeper(Agent):
    """Records every step; wakes on its own only at the ``alarms`` slots."""

    def __init__(self, agent_id: str, priority: int = 1, alarms=()) -> None:
        super().__init__(agent_id, priority=priority)
        self.alarms = sorted(alarms)
        self.steps: List[tuple] = []

    def step(self, inbox, ctx):
        self.steps.append((ctx.now, [message.payload for message in inbox]))

    def next_wake(self, now):
        return next((slot for slot in self.alarms if slot > now), None)

    def is_done(self):
        return True

    def snapshot(self):
        return {"steps": list(self.steps)}

    def restore(self, state):
        self.steps = list(state["steps"])


class Alarm(Agent):
    """Pings ``target`` at each alarm slot and records the replies.

    Between alarms it sleeps: a step before the next alarm with an empty
    inbox does nothing, as the ``next_wake`` contract requires.
    """

    def __init__(self, agent_id: str, target: str, alarms, priority: int):
        super().__init__(agent_id, priority=priority)
        self.target = target
        self.alarms = sorted(alarms)
        self.replies: List[tuple] = []

    def step(self, inbox, ctx):
        self.replies.extend((ctx.now, message.payload) for message in inbox)
        while self.alarms and self.alarms[0] <= ctx.now:
            ctx.send(self.target, Ping(self.agent_id, self.alarms.pop(0)))

    def next_wake(self, now):
        return self.alarms[0] if self.alarms else None

    def is_done(self):
        return not self.alarms

    def snapshot(self):
        return {"alarms": list(self.alarms), "replies": list(self.replies)}

    def restore(self, state):
        self.alarms = list(state["alarms"])
        self.replies = list(state["replies"])


def run_slots(sim: TimeSlottedSimulator, count: int) -> None:
    for _ in range(count):
        sim.run_slot()


class TestWakeSemantics:
    def test_sleeping_agent_is_stepped_only_on_delivery(self):
        alarm = Alarm("a", "z", alarms=[2, 5], priority=0)
        sleeper = Sleeper("z")
        sim = TimeSlottedSimulator([alarm, sleeper])
        run_slots(sim, 8)
        # Everyone is awake at slot 0; afterwards only deliveries wake it.
        assert sleeper.steps == [(0, []), (2, [2]), (5, [5])]

    def test_timer_fires_at_exactly_its_slot(self):
        sleeper = Sleeper("z", alarms=[3, 7])
        sim = TimeSlottedSimulator([sleeper])
        run_slots(sim, 10)
        assert sleeper.steps == [(0, []), (3, []), (7, [])]

    def test_same_slot_send_to_later_sleeping_agent_is_handled_that_slot(self):
        alarm = Alarm("a", "z", alarms=[2], priority=0)
        sleeper = Sleeper("z", priority=1, alarms=[6])
        sim = TimeSlottedSimulator([alarm, sleeper])
        run_slots(sim, 8)
        # The delivery wakes it at slot 2; its own timer still fires at 6.
        assert sleeper.steps == [(0, []), (2, [2]), (6, [])]

    def test_send_to_earlier_agent_arrives_next_slot(self):
        # Same priority, earlier id: "a" precedes "b" in the stepping order.
        early = Sleeper("a", priority=1)
        alarm = Alarm("b", "a", alarms=[2], priority=1)
        sim = TimeSlottedSimulator([early, alarm])
        run_slots(sim, 5)
        assert early.steps == [(0, []), (3, [2])]

    def test_self_send_arrives_next_slot(self):
        class Ticker(Sleeper):
            def step(self, inbox, ctx):
                super().step(inbox, ctx)
                if ctx.now == 0:
                    ctx.send(self.agent_id, Ping(self.agent_id, 9))

        ticker = Ticker("t")
        sim = TimeSlottedSimulator([ticker])
        run_slots(sim, 4)
        assert ticker.steps == [(0, []), (1, [9])]

    def test_restarted_agent_is_stepped_at_its_restart_slot(self):
        from repro.distributed.faults import CrashFault, FaultSchedule

        sleeper = Sleeper("z")
        schedule = FaultSchedule(
            crashes=[CrashFault("z", crash_slot=2, restart_slot=5)]
        )
        sim = TimeSlottedSimulator([sleeper], fault_schedule=schedule)
        run_slots(sim, 9)
        assert sleeper.steps == [(0, []), (5, [])]

    def test_wake_slot_must_lie_in_the_future(self):
        class Stuck(Sleeper):
            def next_wake(self, now):
                return now

        sim = TimeSlottedSimulator([Stuck("s")])
        with pytest.raises(SimulationError, match="wake at slot 0"):
            sim.run_slot()


class Responder(Echo):
    """An :class:`Echo` that sleeps until a ping arrives."""

    def next_wake(self, now):
        return None

    def snapshot(self):
        return {"seen": list(self.seen)}

    def restore(self, state):
        self.seen = list(state["seen"])


class TestRestoreState:
    @staticmethod
    def build():
        agents = [
            Alarm("a", "e", alarms=[1, 4, 9], priority=0),
            Responder("e", priority=1),
            Alarm("b", "e", alarms=[2, 3, 9], priority=2),
        ]
        sink = ListEventSink()
        sim = TimeSlottedSimulator(
            agents,
            network=DelayedNetwork(0, 2),
            seed=5,
            recorder=Recorder(events=sink),
        )
        return sim, agents, sink

    @staticmethod
    def messages(sink):
        """The kernel's message trace: its ``msg.*`` events."""
        return [e for e in sink.events if e["event"].startswith("msg.")]

    @staticmethod
    def observe(sim, agents, messages):
        return (
            sim.now,
            sim.messages_sent,
            sim.messages_delivered,
            messages,
            agents[0].replies,
            agents[1].seen,
            agents[2].replies,
        )

    def resume(self, interrupt_after, patch_state=dict):
        """Run ``interrupt_after`` slots, snapshot, restore, finish."""
        first_sim, _, first_sink = self.build()
        run_slots(first_sim, interrupt_after)
        state = patch_state(first_sim.snapshot_state())
        resumed_sim, resumed_agents, resumed_sink = self.build()
        resumed_sim.restore_state(state)
        resumed_sim.run()
        messages = self.messages(first_sink) + self.messages(resumed_sink)
        return self.observe(resumed_sim, resumed_agents, messages)

    @pytest.mark.parametrize("interrupt_after", [1, 3, 5, 10])
    def test_mid_run_restore_reproduces_uninterrupted_run(self, interrupt_after):
        golden_sim, golden_agents, golden_sink = self.build()
        golden_sim.run()
        golden = self.observe(
            golden_sim, golden_agents, self.messages(golden_sink)
        )
        assert self.resume(interrupt_after) == golden
        assert golden_agents[1].seen  # the run did exchange messages

    @pytest.mark.parametrize("interrupt_after", [3, 5])
    def test_restore_into_a_simulator_that_ran_ahead(self, interrupt_after):
        """Restoring rewinds the wake bookkeeping too, not only the agents
        and the message queue: timers armed after the checkpoint must not
        survive it."""
        golden_sim, golden_agents, golden_sink = self.build()
        golden_sim.run()
        sim, agents, sink = self.build()
        run_slots(sim, interrupt_after)
        state = sim.snapshot_state()
        at_snapshot = len(sink.events)
        run_slots(sim, 4)
        ran_ahead = len(sink.events)
        sim.restore_state(state)
        sim.run()
        # The trace as the restored run tells it: the slots run ahead of
        # the checkpoint are undone.
        sink.events = sink.events[:at_snapshot] + sink.events[ran_ahead:]
        assert self.observe(sim, agents, self.messages(sink)) == self.observe(
            golden_sim, golden_agents, self.messages(golden_sink)
        )

    def test_restore_ignores_the_events_key_of_older_checkpoints(self):
        older = self.resume(3, lambda state: {**state, "events": []})
        assert older == self.resume(3)
