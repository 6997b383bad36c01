"""Generic time-slotted simulation kernel.

The paper's implementation model (Section IV) is a synchronous,
slot-structured network: "assume that each round in the proposed algorithm
takes one time slot".  The kernel here makes that executable:

* Slots run one after another, and within a slot the kernel steps the
  *awake* agents in deterministic ``(priority, agent_id)`` order.  An
  agent is awake when a message is due for it or when the slot it
  declared through :meth:`Agent.next_wake` has come; every agent is awake
  at slot 0.  Buyer agents use a lower priority number than seller agents,
  so within a single slot buyers act first and sellers react to the same
  slot's proposals -- exactly the paper's one-round-per-slot accounting.
  A slot costs O(1) plus its awake agents, so a run costs
  O(slots + executed steps) rather than O(slots x agents).
* When nothing watches the slots (no live recorder, no ``on_slot``
  hook), :meth:`TimeSlottedSimulator.run` skips the slots where nothing
  is due: it moves ``now`` straight to the earliest of the next due
  message, the next wake timer, the fault schedule's next crash or
  restart, and ``max_slots``.  Such a slot would step nobody, so results
  and counters are unchanged, and a deadlocked run reaches its bound at
  once.  Traced, metered and ``on_slot`` (durable) runs visit every slot.
* Messages travel through a pluggable :class:`~repro.distributed.network.
  Network` which assigns each message a delivery slot (and may drop it).
  A message delivered "at slot t" is visible to its recipient when the
  recipient is stepped in slot t (it wakes a sleeping recipient);
  messages sent in slot t to an agent at or before the sender in the
  stepping order are seen next slot.
* The simulation terminates when every agent reports ``is_done()`` and no
  message is in flight, or when ``max_slots`` is hit (which raises --
  a protocol that fails to quiesce is a bug, not a result -- unless the
  caller opted into ``on_timeout="stop"`` graceful degradation).
* Node faults are injected declaratively: a
  :class:`~repro.distributed.faults.FaultSchedule` crashes agents (not
  stepped; queued/incoming messages lost and counted as
  ``messages_lost_to_crash``) and restarts them later from a checkpoint
  (``Agent.snapshot()`` / ``restore()``) or amnesiac.  Partitions and
  type-targeted faults in the schedule are enforced by auto-wrapping the
  network in a :class:`~repro.distributed.faults.PartitionedNetwork`.

The kernel knows nothing about spectrum matching; it is reused by the
tests for unrelated toy protocols, which is the usual sign the abstraction
is cut in the right place.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.distributed.faults import FaultSchedule, PartitionedNetwork, RestartMode
from repro.distributed.messages import Message
from repro.distributed.network import Network, ReliableNetwork
from repro.errors import SimulationError
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = ["Agent", "SlotContext", "TimeSlottedSimulator"]


class Agent:
    """Base class for simulation agents.

    Subclasses implement :meth:`step` (called with the drained inbox in
    every slot the agent is awake) and :meth:`is_done` (quiescence flag
    used for termination detection).  Agents that act on their own
    deadlines rather than every slot override :meth:`next_wake`.  Agents
    that should survive crash/restart faults additionally implement
    :meth:`snapshot` / :meth:`restore`.

    Attributes
    ----------
    agent_id:
        Unique wire identifier (e.g. ``"buyer:3"``).
    priority:
        Scheduling key; lower numbers step earlier within a slot.
    """

    def __init__(self, agent_id: str, priority: int = 0) -> None:
        self.agent_id = agent_id
        self.priority = priority

    def step(self, inbox: List[Message], ctx: "SlotContext") -> None:
        """Handle this slot: consume ``inbox``, optionally send messages."""
        raise NotImplementedError

    def is_done(self) -> bool:
        """Return ``True`` when the agent has nothing left to do."""
        raise NotImplementedError

    def next_wake(self, now: int) -> Optional[int]:
        """The slot at which to step this agent again without a message.

        The kernel calls this after every step (``now`` is the slot just
        stepped) and steps the agent again at the returned slot, or
        earlier if a message is due for it; ``None`` means only a message
        can make it act.  Contract: stepping the agent with an empty inbox
        before its wake slot must be a no-op -- it sends nothing and
        leaves :meth:`snapshot` unchanged -- so skipping such steps cannot
        change a run.  The default, ``now + 1``, polls every slot.
        """
        return now + 1

    def snapshot(self) -> Any:
        """Return an opaque checkpoint of all mutable local state.

        The kernel calls this when a :class:`CrashFault` with a scheduled
        restart fires (checkpoint mode: at crash time; amnesia mode: once
        at simulation start).  The default refuses, so only agents that
        explicitly opt into durability can be crash/restart targets.
        """
        raise SimulationError(
            f"agent {self.agent_id!r} does not implement snapshot(); "
            f"it cannot be restarted after a crash"
        )

    def restore(self, state: Any) -> None:
        """Reset local state from a :meth:`snapshot` checkpoint."""
        raise SimulationError(
            f"agent {self.agent_id!r} does not implement restore(); "
            f"it cannot be restarted after a crash"
        )


class _CausalTracker:
    """Causal bookkeeping behind the kernel's ``msg.*`` event stream.

    Active only when the simulator's recorder has a live event sink; the
    null path never allocates one.  Every *send occurrence* (not message
    object -- a shared immutable message sent to N recipients is N
    occurrences) gets a fresh ``msg_id``.  ``parent`` is the id of the
    delivered message the sending agent was reacting to (``None`` for
    spontaneous sends), and ``trace`` is the root id of the causal chain,
    propagated parent-to-child so a whole propose -> accept -> transfer
    chain shares one trace id.
    """

    __slots__ = (
        "next_id",
        "current_parent",
        "trace_of",
        "delivered_ids",
        "inbox_ids",
    )

    def __init__(self) -> None:
        self.next_id = 0
        #: Parent id applied to the next send (set via the ctx cause API).
        self.current_parent: Optional[int] = None
        #: msg_id -> root id of its causal chain.
        self.trace_of: Dict[int, int] = {}
        #: id(message object) -> msg_id, for the agent step in progress.
        self.delivered_ids: Dict[int, int] = {}
        #: Per-destination ids mirroring the kernel's slot inboxes.
        self.inbox_ids: Dict[str, List[int]] = {}

    def assign(self) -> Tuple[int, Optional[int], int]:
        """Allocate ``(msg_id, parent_id, trace_id)`` for one send."""
        msg_id = self.next_id
        self.next_id += 1
        parent = self.current_parent
        trace = self.trace_of.get(parent, msg_id) if parent is not None else msg_id
        self.trace_of[msg_id] = trace
        return msg_id, parent, trace


@dataclass
class SlotContext:
    """Per-step facade handed to agents.

    Provides the current slot number, a ``send`` function, and a seeded RNG
    shared by the whole simulation (deterministic runs).  When the kernel
    traces message causality it also carries the (kernel-owned) causal
    tracker; the cause methods are no-ops otherwise, so agents may call
    them unconditionally.
    """

    now: int
    rng: np.random.Generator
    _send: Callable[[str, Message], Optional[int]]
    _causal: Optional[_CausalTracker] = None

    def send(self, destination: str, message: Message) -> Optional[int]:
        """Send ``message`` to ``destination``; returns its causal msg id
        when the kernel is tracing message causality (``None`` otherwise)."""
        return self._send(destination, message)

    def set_cause(self, message: Optional[Message]) -> None:
        """Declare the delivered ``message`` as the cause of upcoming sends.

        Agents call this as they pick each inbox message up; sends issued
        while it is in force are stamped with that message's id as their
        ``parent``.  ``None`` clears the cause (spontaneous sends).
        """
        tracker = self._causal
        if tracker is not None:
            if message is None:
                tracker.current_parent = None
            else:
                tracker.current_parent = tracker.delivered_ids.get(id(message))

    def set_cause_id(self, msg_id: Optional[int]) -> None:
        """Declare a known msg id as the cause (e.g. ARQ retransmissions)."""
        tracker = self._causal
        if tracker is not None:
            tracker.current_parent = msg_id

    def alias_cause(
        self, carrier: Message, payloads: Iterable[Message]
    ) -> None:
        """Attribute unwrapped ``payloads`` to the ``carrier`` envelope.

        Transport wrappers use this so an application message released
        from a :class:`~repro.distributed.transport.DataFrame` (or a
        hold-back queue) inherits the frame's delivered id.
        """
        tracker = self._causal
        if tracker is not None:
            carrier_id = tracker.delivered_ids.get(id(carrier))
            if carrier_id is not None:
                for payload in payloads:
                    tracker.delivered_ids[id(payload)] = carrier_id


class _QueuedMessage(NamedTuple):
    """One send in flight.

    The leading ``(delivery_slot, sequence)`` orders the message heap by
    plain tuple comparison; sequences are unique, so the later fields are
    never compared.
    """

    delivery_slot: int
    sequence: int
    destination: str
    message: Message
    #: Causal msg id of this send occurrence (-1 when not tracing).
    msg_id: int = -1


class TimeSlottedSimulator:
    """Deterministic synchronous-round simulator.

    Parameters
    ----------
    agents:
        The agent population; ids must be unique.
    network:
        Message-delivery model; defaults to :class:`ReliableNetwork`
        (delivery in the sending slot, so a lower-priority recipient sees
        the message within the same slot).
    seed:
        Seed for the shared RNG handed to agents and the network.
    recorder:
        Observability backend (``None`` resolves to the ambient recorder).
        When live, each slot reports message deltas, in-flight depth and
        agent-step latency, and ``run`` executes under a
        ``simulator.run`` span and ends with a ``sim.done`` event.  When
        the recorder's *event sink* is live the kernel additionally
        traces message causality: every send occurrence is stamped with
        an ``id``/``parent``/``trace`` triple and emitted as ``msg.sent``,
        matched later by ``msg.delivered`` or ``msg.dropped`` (reason
        ``network``, ``crashed_destination`` or ``crash_purge``), which is
        what :mod:`repro.trace` reconstructs causal chains from.
    fault_schedule:
        Declarative node/link faults to execute
        (:class:`~repro.distributed.faults.FaultSchedule`).  Crashes and
        restarts are handled by the kernel; if the schedule carries
        partitions or message faults, ``network`` is automatically wrapped
        in a :class:`~repro.distributed.faults.PartitionedNetwork`
        enforcing them.  ``None`` (or an empty schedule) leaves every code
        path identical to the fault-free kernel.
    """

    def __init__(
        self,
        agents: Iterable[Agent],
        network: Optional[Network] = None,
        seed: int = 0,
        recorder: Optional[Recorder] = None,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self._agents: Dict[str, Agent] = {}
        for agent in agents:
            if agent.agent_id in self._agents:
                raise SimulationError(f"duplicate agent id {agent.agent_id!r}")
            self._agents[agent.agent_id] = agent
        if not self._agents:
            raise SimulationError("a simulation needs at least one agent")
        self._order = sorted(
            self._agents.values(), key=lambda a: (a.priority, a.agent_id)
        )
        #: agent id -> position in the stepping order.
        self._index: Dict[str, int] = {
            agent.agent_id: index for index, agent in enumerate(self._order)
        }
        if fault_schedule is not None and fault_schedule.empty:
            fault_schedule = None
        self._schedule = fault_schedule
        if fault_schedule is not None:
            for crash in fault_schedule.crashes:
                if crash.agent_id not in self._agents:
                    raise SimulationError(
                        f"fault schedule crashes unknown agent "
                        f"{crash.agent_id!r}"
                    )
            if fault_schedule.has_network_faults and not isinstance(
                network, PartitionedNetwork
            ):
                network = PartitionedNetwork(fault_schedule, base=network)
        self._network = network if network is not None else ReliableNetwork()
        self._rng = np.random.default_rng(seed)
        self._queue: List[_QueuedMessage] = []
        self._sequence = 0
        self._now = 0
        #: Due messages bucketed per destination for the current slot.
        self._slot_inboxes: Dict[str, List[Message]] = {}
        # Wake bookkeeping, by position in the stepping order.  A timer
        # entry ``(slot, index)`` is live only while ``_wake_at[index] ==
        # slot``; superseded entries stay in the heap until they surface.
        self._wake_at: List[Optional[int]] = []
        self._timers: List[Tuple[int, int]] = []
        #: Positions to step in the current slot (min-heap; may repeat).
        self._awake: List[int] = []
        #: Position of the agent being stepped (-1 between slots).
        self._cursor = -1
        self._wake_all()
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._finished = False
        self._timed_out = False
        # Fault-execution state (all dormant without a schedule).
        self._crashed: set = set()
        self._checkpoints: Dict[str, Any] = {}
        self._crash_slot: Dict[str, int] = {}
        self._crash_count = 0
        self._restart_count = 0
        self._messages_lost_to_crash = 0
        self._recovery_slots: List[int] = []
        if fault_schedule is not None:
            # Amnesiac restarts restore the state at simulation start.
            self._pristine: Dict[str, Any] = {
                agent_id: self._agents[agent_id].snapshot()
                for agent_id in fault_schedule.amnesiac_agents()
            }
        else:
            self._pristine = {}
        # Observability: resolved once here, then consulted as a plain
        # bool per slot -- a disabled recorder costs the kernel nothing.
        self._obs = resolve_recorder(recorder)
        self._observing = self._obs.enabled
        # Causal message tracing rides on the event sink: without one the
        # tracker stays None and every causal hook is a no-op.
        self._causal: Optional[_CausalTracker] = (
            _CausalTracker() if self._obs.events.enabled else None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current slot index (0 before the first slot runs)."""
        return self._now

    @property
    def network(self) -> Network:
        """The effective delivery model (after any fault-schedule wrapping)."""
        return self._network

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped

    @property
    def messages_lost_to_crash(self) -> int:
        """Messages lost because their destination was crashed."""
        return self._messages_lost_to_crash

    @property
    def crashes(self) -> int:
        """Crash faults executed so far."""
        return self._crash_count

    @property
    def restarts(self) -> int:
        """Restart faults executed so far."""
        return self._restart_count

    @property
    def crashed_agents(self) -> Tuple[str, ...]:
        """Ids of agents currently down, sorted."""
        return tuple(sorted(self._crashed))

    @property
    def recovery_slots(self) -> Tuple[int, ...]:
        """Downtime (slots) of each executed restart, in restart order."""
        return tuple(self._recovery_slots)

    @property
    def timed_out(self) -> bool:
        """Whether :meth:`run` stopped at the slot bound without quiescing."""
        return self._timed_out

    def agent(self, agent_id: str) -> Agent:
        """Look up an agent by id (raises for unknown ids)."""
        try:
            return self._agents[agent_id]
        except KeyError:
            raise SimulationError(f"unknown agent {agent_id!r}") from None

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _emit_msg_dropped(self, msg_id: int, reason: str) -> None:
        """One ``msg.dropped`` causal event (tracing is known to be on)."""
        self._obs.events.emit(
            {
                "event": "msg.dropped",
                "id": msg_id,
                "slot": self._now,
                "reason": reason,
            }
        )

    def _enqueue(self, destination: str, message: Message) -> Optional[int]:
        index = self._index.get(destination)
        if index is None:
            raise SimulationError(
                f"message to unknown agent {destination!r}: {message!r}"
            )
        self._messages_sent += 1
        tracker = self._causal
        msg_id = -1
        if tracker is not None:
            msg_id, parent, trace = tracker.assign()
            self._obs.events.emit(
                {
                    "event": "msg.sent",
                    "id": msg_id,
                    "trace": trace,
                    "parent": parent,
                    "slot": self._now,
                    "src": message.sender,
                    "dst": destination,
                    "type": type(message).__name__,
                }
            )
        if destination in self._crashed:
            # A dead host: the packet is lost on the wire, accounted
            # separately from network drops.
            self._messages_lost_to_crash += 1
            if tracker is not None:
                self._emit_msg_dropped(msg_id, "crashed_destination")
            return msg_id if tracker is not None else None
        verdict = self._network.route(
            self._now, self._rng, message.sender, destination, message
        )
        if verdict is None:
            self._messages_dropped += 1
            if tracker is not None:
                self._emit_msg_dropped(msg_id, "network")
            return msg_id if tracker is not None else None
        delivery_slot = verdict
        if delivery_slot < self._now:
            raise SimulationError(
                f"network produced delivery slot {delivery_slot} in the past "
                f"(now={self._now})"
            )
        if delivery_slot == self._now:
            if index > self._cursor:
                # Same-slot delivery to an agent later in the stepping
                # order: straight into its bucket, waking it this slot.
                self._deliver_now(index, destination, message, msg_id)
                return msg_id if tracker is not None else None
            # The stepping order has already passed the recipient (awake
            # or not): a current-slot delivery is seen next slot.
            delivery_slot += 1
        heapq.heappush(
            self._queue,
            _QueuedMessage(
                delivery_slot, self._sequence, destination, message, msg_id
            ),
        )
        self._sequence += 1
        return msg_id if tracker is not None else None

    def _deliver_now(
        self, index: int, destination: str, message: Message, msg_id: int
    ) -> None:
        """Append a current-slot delivery to its recipient's bucket.

        The bucket's creation wakes the recipient, so an agent is pushed
        onto the awake heap once per slot however many messages it gets.
        """
        bucket = self._slot_inboxes.get(destination)
        if bucket is None:
            self._slot_inboxes[destination] = [message]
            heapq.heappush(self._awake, index)
        else:
            bucket.append(message)
        tracker = self._causal
        if tracker is not None:
            tracker.inbox_ids.setdefault(destination, []).append(msg_id)

    def _bucket_due_messages(self) -> None:
        """Move every due message into its destination's slot bucket.

        One heap scan per slot.  Heap order is (delivery_slot, send
        sequence), so each destination's bucket fills in exactly that
        order, ahead of any same-slot sends appended while stepping.
        """
        tracker = self._causal
        index_of = self._index
        while self._queue and self._queue[0].delivery_slot <= self._now:
            item = heapq.heappop(self._queue)
            if item.destination in self._crashed:
                self._messages_lost_to_crash += 1
                if tracker is not None:
                    self._emit_msg_dropped(item.msg_id, "crashed_destination")
                continue
            self._deliver_now(
                index_of[item.destination],
                item.destination,
                item.message,
                item.msg_id,
            )

    def _wake_all(self) -> None:
        """Arm every agent for the current slot (run start and resume)."""
        count = len(self._order)
        self._wake_at = [self._now] * count
        self._timers = [(self._now, index) for index in range(count)]

    def _arm(self, index: int, slot: int) -> None:
        """Set agent ``index``'s timer to ``slot``, superseding any other."""
        if self._wake_at[index] != slot:
            self._wake_at[index] = slot
            heapq.heappush(self._timers, (slot, index))

    def _fire_timers(self) -> None:
        """Wake every agent whose live timer is due this slot."""
        timers = self._timers
        wake_at = self._wake_at
        while timers and timers[0][0] <= self._now:
            slot, index = heapq.heappop(timers)
            if wake_at[index] == slot:
                wake_at[index] = None
                heapq.heappush(self._awake, index)

    def _drain_inbox(self, agent_id: str) -> List[Message]:
        inbox = self._slot_inboxes.pop(agent_id, [])
        self._messages_delivered += len(inbox)
        tracker = self._causal
        if tracker is not None:
            ids = tracker.inbox_ids.pop(agent_id, [])
            tracker.delivered_ids = {
                id(message): msg_id for message, msg_id in zip(inbox, ids)
            }
            tracker.current_parent = None
            emit = self._obs.events.emit
            for msg_id in ids:
                emit(
                    {
                        "event": "msg.delivered",
                        "id": msg_id,
                        "slot": self._now,
                        "dst": agent_id,
                    }
                )
        return inbox

    # ------------------------------------------------------------------
    # Fault execution
    # ------------------------------------------------------------------
    def _purge_messages_to(self, agent_id: str) -> None:
        """Drop every queued/bucketed message addressed to ``agent_id``."""
        tracker = self._causal
        survivors = [q for q in self._queue if q.destination != agent_id]
        lost = len(self._queue) - len(survivors)
        if lost:
            if tracker is not None:
                for item in self._queue:
                    if item.destination == agent_id:
                        self._emit_msg_dropped(item.msg_id, "crash_purge")
            self._queue = survivors
            heapq.heapify(self._queue)
        lost += len(self._slot_inboxes.pop(agent_id, []))
        if tracker is not None:
            for msg_id in tracker.inbox_ids.pop(agent_id, []):
                self._emit_msg_dropped(msg_id, "crash_purge")
        self._messages_lost_to_crash += lost

    def _apply_faults(self) -> None:
        """Execute the schedule's node events due at the current slot."""
        schedule = self._schedule
        assert schedule is not None
        observing = self._observing
        for fault in schedule.crashes_at(self._now):
            agent_id = fault.agent_id
            if agent_id in self._crashed:  # pragma: no cover - validated
                raise SimulationError(f"agent {agent_id!r} is already down")
            if fault.restart_slot is not None and (
                fault.mode is RestartMode.CHECKPOINT
            ):
                self._checkpoints[agent_id] = self._agents[agent_id].snapshot()
            self._crashed.add(agent_id)
            self._crash_slot[agent_id] = self._now
            self._crash_count += 1
            self._purge_messages_to(agent_id)
            if observing:
                self._obs.metrics.counter("sim.crashes").inc()
                self._obs.emit(
                    "sim.crash",
                    slot=self._now,
                    agent=agent_id,
                    restart_slot=fault.restart_slot,
                    mode=fault.mode.value,
                )
        for fault in schedule.restarts_at(self._now):
            agent_id = fault.agent_id
            self._crashed.discard(agent_id)
            if fault.mode is RestartMode.CHECKPOINT:
                state = self._checkpoints.pop(agent_id)
            else:
                state = self._pristine[agent_id]
            self._agents[agent_id].restore(state)
            self._arm(self._index[agent_id], self._now)
            down = self._now - self._crash_slot[agent_id]
            self._recovery_slots.append(down)
            self._restart_count += 1
            if observing:
                self._obs.metrics.counter("sim.restarts").inc()
                self._obs.metrics.histogram("sim.recovery_slots").observe(down)
                self._obs.emit(
                    "sim.restart",
                    slot=self._now,
                    agent=agent_id,
                    mode=fault.mode.value,
                    down_slots=down,
                )
        if observing:
            for partition in schedule.partitions_starting_at(self._now):
                self._obs.metrics.counter("sim.partitions").inc()
                self._obs.emit(
                    "sim.partition",
                    slot=self._now,
                    groups=[sorted(group) for group in partition.groups],
                    end_slot=partition.end_slot,
                )
            for partition in schedule.partitions_ending_at(self._now):
                self._obs.emit(
                    "sim.partition_healed",
                    slot=self._now,
                    groups=[sorted(group) for group in partition.groups],
                )

    def run_slot(self) -> None:
        """Execute one time slot: step the awake agents in scheduling order.

        When the recorder is live the slot also records each executed
        step's latency into a histogram, its message deltas and in-flight
        queue depth into the metrics registry, and one ``sim.slot`` event.
        """
        if self._finished:
            raise SimulationError("simulation already finished")
        if self._schedule is not None:
            self._apply_faults()
        self._bucket_due_messages()
        self._fire_timers()
        now = self._now
        ctx = SlotContext(
            now=now,
            rng=self._rng,
            _send=self._enqueue,
            _causal=self._causal,
        )
        observing = self._observing
        if observing:
            rec = self._obs
            metrics = rec.metrics
            step_hist = metrics.histogram("sim.agent_step_s")
            sent0 = self._messages_sent
            delivered0 = self._messages_delivered
            dropped0 = self._messages_dropped
        awake = self._awake
        order = self._order
        crashed = self._crashed
        while awake:
            index = heapq.heappop(awake)
            if index <= self._cursor:
                continue  # woken twice this slot
            self._cursor = index
            agent = order[index]
            if agent.agent_id in crashed:
                continue
            inbox = self._drain_inbox(agent.agent_id)
            if observing:
                started = time.perf_counter()
                agent.step(inbox, ctx)
                step_hist.observe(time.perf_counter() - started)
            else:
                agent.step(inbox, ctx)
            wake = agent.next_wake(now)
            if wake is None:
                self._wake_at[index] = None
            elif wake > now:
                self._arm(index, wake)
            else:
                raise SimulationError(
                    f"agent {agent.agent_id!r} asked to wake at slot {wake}, "
                    f"not after the current slot {now}"
                )
        self._cursor = -1
        if observing:
            inflight = len(self._queue)
            sent = self._messages_sent - sent0
            delivered = self._messages_delivered - delivered0
            dropped = self._messages_dropped - dropped0
            metrics.counter("sim.slots").inc()
            metrics.counter("sim.messages_sent").inc(sent)
            metrics.counter("sim.messages_delivered").inc(delivered)
            metrics.counter("sim.messages_dropped").inc(dropped)
            metrics.gauge("sim.inflight_depth").set(inflight)
            metrics.histogram("sim.slot_messages").observe(sent)
            if rec.events.enabled or rec.runs.enabled:
                rec.forward(
                    {
                        "event": "sim.slot",
                        "slot": now,
                        "sent": sent,
                        "delivered": delivered,
                        "dropped": dropped,
                        "inflight": inflight,
                    }
                )
        self._now += 1

    def _skip_idle_slots(self, max_slots: int) -> None:
        """Move ``now`` to the next slot at which anything is due.

        That is the earliest of the next due message, the next live wake
        timer, the schedule's next crash or restart, and ``max_slots``.
        A slot before it steps nobody and changes nothing but ``now``,
        and it cannot end the run: quiescence depends on in-flight
        messages, agent states and pending node events, none of which
        moves in such a slot.
        """
        now = self._now
        target = max_slots
        if self._queue:
            target = min(target, self._queue[0].delivery_slot)
        timers = self._timers
        wake_at = self._wake_at
        while timers and wake_at[timers[0][1]] != timers[0][0]:
            heapq.heappop(timers)  # superseded: it would never fire
        if timers:
            target = min(target, timers[0][0])
        if self._schedule is not None:
            event = self._schedule.next_node_event_slot(now)
            if event is not None:
                target = min(target, event)
        if target > now:
            self._now = target

    def is_quiescent(self) -> bool:
        """All agents done and no messages in flight.

        Under a fault schedule, three extra conditions: pending node
        events (a crash or restart yet to fire) keep the simulation
        running; an agent that is down but will restart blocks quiescence
        (it may act again); an agent that is down forever does not -- it
        is gone, and the market settles without it.
        """
        if self._queue or any(self._slot_inboxes.values()):
            return False
        if self._schedule is not None:
            if self._now <= self._schedule.last_node_event_slot:
                return False
            # Past the last event every remaining crashed agent is
            # permanently gone; the population quiesces without them.
            return all(
                a.is_done()
                for a in self._order
                if a.agent_id not in self._crashed
            )
        return all(a.is_done() for a in self._order)

    # ------------------------------------------------------------------
    # Process-level durability (crash-consistent resume)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Capture the whole simulation at a slot boundary.

        Unlike the per-agent :meth:`Agent.snapshot` hooks (which model
        *node* crashes inside the simulated world), this captures the
        entire kernel -- agents, in-flight messages, RNG stream, fault
        bookkeeping, causal-tracing cursors -- so that the *process*
        hosting the simulation can be SIGKILLed and a fresh process can
        continue the run deterministically (:mod:`repro.runtime`).

        Must be called between slots (never from inside an agent step).
        The returned dict holds arbitrary picklable Python objects, not
        JSON; the checkpoint layer serialises it opaquely.  Every agent
        must implement ``snapshot()``/``restore()``.
        """
        state: Dict[str, Any] = {
            "now": self._now,
            "sequence": self._sequence,
            "rng_state": self._rng.bit_generator.state,
            "agents": {
                agent_id: agent.snapshot()
                for agent_id, agent in sorted(self._agents.items())
            },
            "queue": list(self._queue),
            "slot_inboxes": {
                dst: list(msgs) for dst, msgs in self._slot_inboxes.items()
            },
            "messages_sent": self._messages_sent,
            "messages_delivered": self._messages_delivered,
            "messages_dropped": self._messages_dropped,
            "finished": self._finished,
            "timed_out": self._timed_out,
            "crashed": sorted(self._crashed),
            "checkpoints": dict(self._checkpoints),
            "crash_slot": dict(self._crash_slot),
            "crash_count": self._crash_count,
            "restart_count": self._restart_count,
            "messages_lost_to_crash": self._messages_lost_to_crash,
            "recovery_slots": list(self._recovery_slots),
            "pristine": dict(self._pristine),
        }
        if isinstance(self._network, PartitionedNetwork):
            state["network_drops"] = self._network.drops_snapshot()
        # ARQ wrappers drop pending frames' causal ids from their in-world
        # snapshots on purpose; a process-level resume must keep them so
        # post-resume retransmissions stay on their original causal chains.
        transport_ids = {
            agent_id: agent.causal_sent_ids()
            for agent_id, agent in sorted(self._agents.items())
            if hasattr(agent, "causal_sent_ids")
        }
        if transport_ids:
            state["transport_sent_ids"] = transport_ids
        tracker = self._causal
        if tracker is not None:
            state["causal"] = {
                "next_id": tracker.next_id,
                "trace_of": dict(tracker.trace_of),
                "inbox_ids": {
                    dst: list(ids) for dst, ids in tracker.inbox_ids.items()
                },
            }
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Reset the kernel from a :meth:`snapshot_state` checkpoint.

        The simulator must have been constructed with the same agent
        population, network model, fault schedule and observability wiring
        as the one that took the snapshot (the durable runtime rebuilds it
        from the run manifest before calling this).  Keys this kernel does
        not keep (older checkpoints hold an ``events`` list) are ignored.
        """
        unknown = set(state["agents"]) - set(self._agents)
        if unknown:
            raise SimulationError(
                f"checkpoint names unknown agents: {sorted(unknown)[:5]}"
            )
        for agent_id, agent_state in state["agents"].items():
            self._agents[agent_id].restore(agent_state)
        self._now = int(state["now"])
        self._sequence = int(state["sequence"])
        self._rng.bit_generator.state = state["rng_state"]
        self._queue = list(state["queue"])
        heapq.heapify(self._queue)
        self._slot_inboxes = {
            dst: list(msgs) for dst, msgs in state["slot_inboxes"].items()
        }
        # Wake times are not checkpointed: everyone steps at the restored
        # slot (extra steps are no-ops by the next_wake contract) and
        # declares its next wake afresh.
        self._awake = []
        self._cursor = -1
        self._wake_all()
        self._messages_sent = int(state["messages_sent"])
        self._messages_delivered = int(state["messages_delivered"])
        self._messages_dropped = int(state["messages_dropped"])
        self._finished = bool(state["finished"])
        self._timed_out = bool(state["timed_out"])
        self._crashed = set(state["crashed"])
        self._checkpoints = dict(state["checkpoints"])
        self._crash_slot = dict(state["crash_slot"])
        self._crash_count = int(state["crash_count"])
        self._restart_count = int(state["restart_count"])
        self._messages_lost_to_crash = int(state["messages_lost_to_crash"])
        self._recovery_slots = list(state["recovery_slots"])
        self._pristine = dict(state["pristine"])
        if isinstance(self._network, PartitionedNetwork) and (
            "network_drops" in state
        ):
            self._network.restore_drops(state["network_drops"])
        for agent_id, ids in state.get("transport_sent_ids", {}).items():
            agent = self._agents.get(agent_id)
            if agent is not None and hasattr(agent, "restore_causal_sent_ids"):
                agent.restore_causal_sent_ids(ids)
        tracker = self._causal
        causal_state = state.get("causal")
        if tracker is not None and causal_state is not None:
            tracker.next_id = int(causal_state["next_id"])
            tracker.current_parent = None
            tracker.trace_of = dict(causal_state["trace_of"])
            tracker.delivered_ids = {}
            tracker.inbox_ids = {
                dst: list(ids)
                for dst, ids in causal_state["inbox_ids"].items()
            }

    def run(
        self,
        max_slots: int = 100_000,
        on_timeout: str = "raise",
        on_slot: Optional[Callable[["TimeSlottedSimulator"], None]] = None,
    ) -> int:
        """Run until quiescence; returns the slot count (``now``).

        Parameters
        ----------
        max_slots:
            Slot budget.
        on_timeout:
            ``"raise"`` (default): failing to quiesce within ``max_slots``
            raises -- a protocol that cannot terminate is a bug, not a
            result.  ``"stop"``: stop stepping instead and mark
            :attr:`timed_out`; callers (e.g. the degraded-result path of
            ``run_distributed_matching``) then salvage what the agents
            agreed on so far.
        on_slot:
            Optional callback invoked with the simulator after every
            completed slot (a safe boundary for
            :meth:`snapshot_state`).  The durable runtime hooks its WAL
            append and periodic checkpointing here.  Without it, and
            without a live recorder, slots where nothing is due are
            skipped rather than stepped; the return value counts them
            all the same.

        Raises
        ------
        SimulationError
            If the protocol fails to quiesce within ``max_slots`` slots
            and ``on_timeout="raise"``.
        """
        if on_timeout not in ("raise", "stop"):
            raise SimulationError(
                f"on_timeout must be 'raise' or 'stop', got {on_timeout!r}"
            )
        # Nothing reads a slot's events, metrics or WAL record without a
        # live recorder or an ``on_slot`` hook, so such a run jumps over
        # the slots where nothing is due.
        skip_idle = on_slot is None and not self._observing
        with self._obs.span("simulator.run"):
            while not self.is_quiescent():
                if skip_idle:
                    self._skip_idle_slots(max_slots)
                if self._now >= max_slots:
                    if on_timeout == "stop":
                        self._timed_out = True
                        break
                    busy = [a.agent_id for a in self._order if not a.is_done()]
                    raise SimulationError(
                        f"no quiescence after {max_slots} slots; "
                        f"{len(self._queue)} messages in flight, busy agents: "
                        f"{busy[:10]}"
                    )
                self.run_slot()
                if on_slot is not None:
                    on_slot(self)
        self._finished = True
        if self._observing:
            fields = dict(
                slots=self._now,
                messages_sent=self._messages_sent,
                messages_delivered=self._messages_delivered,
                messages_dropped=self._messages_dropped,
            )
            if self._timed_out:
                fields["timed_out"] = True
            self._obs.emit("sim.done", **fields)
            if self._schedule is not None:
                self._obs.emit(
                    "sim.fault_summary",
                    crashes=self._crash_count,
                    restarts=self._restart_count,
                    messages_lost_to_crash=self._messages_lost_to_crash,
                    recovery_slots=list(self._recovery_slots),
                )
        return self._now
