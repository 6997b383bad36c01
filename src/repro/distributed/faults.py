"""Declarative node- and link-level fault injection for the kernel.

The message-level fault models in :mod:`repro.distributed.network`
(loss, delay) perturb *individual packets*; a production DSA market must
also survive *node* faults: agents crashing mid-handshake, rejoining
later, or being partitioned away from part of the population.  This
module supplies the declarative vocabulary:

* :class:`CrashFault` -- take an agent down at a slot, optionally restart
  it later, either from a checkpoint (``Agent.snapshot()`` taken at crash
  time and ``restore()``-d on restart) or *amnesiac* (restored to its
  state at simulation start, forgetting everything learned since --
  recovered buyers then re-enter Stage II through the protocol's existing
  invitation path).
* :class:`PartitionFault` -- split the agent population into groups over
  a slot window; messages crossing group boundaries are dropped.
* :class:`MessageFault` -- drop or delay only messages of given types
  (optionally restricted to one sender/destination) over a slot window,
  e.g. a blackout window for ``TransferAnswer`` only.
* :class:`FaultSchedule` -- an immutable bundle of the above, executed by
  :class:`~repro.distributed.simulator.TimeSlottedSimulator` (crashes and
  restarts) and :class:`PartitionedNetwork` (partitions and message
  faults).

:class:`PartitionedNetwork` is a ``Network`` like any other: the kernel
hands ``Network.route`` each message with its sender and destination,
which the wrapper needs and the models it wraps ignore.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.messages import Message
from repro.distributed.network import Network, ReliableNetwork
from repro.errors import SimulationError

__all__ = [
    "RestartMode",
    "CrashFault",
    "PartitionFault",
    "MessageFault",
    "FaultSchedule",
    "PartitionedNetwork",
]


class RestartMode(enum.Enum):
    """How a crashed agent comes back.

    ``CHECKPOINT`` restores the ``Agent.snapshot()`` taken at crash time
    (durable local state survives the crash).  ``AMNESIA`` restores the
    snapshot taken at simulation start: the agent forgets everything it
    learned during the run, modelling a node that lost its disk.  Note
    amnesiac restart composes with plain networks but not with the ARQ
    transport (a reborn peer restarting its sequence numbers at zero looks
    like a flood of duplicates); checkpoint restart is the supported mode
    under :class:`~repro.distributed.transport.ReliableAgent`.
    """

    CHECKPOINT = "checkpoint"
    AMNESIA = "amnesia"


@dataclass(frozen=True)
class CrashFault:
    """Crash ``agent_id`` at ``crash_slot``; optionally restart later.

    While down the agent is not stepped, its queued messages are dropped
    (counted by the kernel as ``messages_lost_to_crash``), and new
    messages addressed to it are lost on send -- exactly a dead host.
    ``restart_slot=None`` means the agent never comes back.
    """

    agent_id: str
    crash_slot: int
    restart_slot: Optional[int] = None
    mode: RestartMode = RestartMode.CHECKPOINT

    def __post_init__(self) -> None:
        if self.crash_slot < 0:
            raise SimulationError(
                f"crash_slot must be >= 0, got {self.crash_slot}"
            )
        if self.restart_slot is not None and self.restart_slot <= self.crash_slot:
            raise SimulationError(
                f"restart_slot must be after crash_slot, got crash at "
                f"{self.crash_slot}, restart at {self.restart_slot}"
            )

    @classmethod
    def parse(cls, spec: str) -> "CrashFault":
        """Parse ``AGENT@CRASH[-RESTART][/MODE]`` (the CLI/manifest syntax).

        Examples: ``buyer:3@10`` (permanent crash at slot 10),
        ``seller:0@5-12/amnesia`` (restart at slot 12, amnesiac).  The
        same strings round-trip through durable-run manifests, so a
        resumed run reconstructs its fault schedule exactly.
        """
        body, _, mode_text = spec.partition("/")
        agent, at, window = body.rpartition("@")
        if not at or not agent:
            raise SimulationError(
                f"bad crash spec {spec!r}: missing 'AGENT@CRASH_SLOT'"
            )
        crash_text, dash, restart_text = window.partition("-")
        try:
            mode = RestartMode(mode_text) if mode_text else RestartMode.CHECKPOINT
            return cls(
                agent_id=agent,
                crash_slot=int(crash_text),
                restart_slot=int(restart_text) if dash else None,
                mode=mode,
            )
        except ValueError as exc:
            raise SimulationError(f"bad crash spec {spec!r}: {exc}") from None

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (used by durable-run manifests)."""
        window = str(self.crash_slot)
        if self.restart_slot is not None:
            window += f"-{self.restart_slot}"
        suffix = "" if self.mode is RestartMode.CHECKPOINT else f"/{self.mode.value}"
        return f"{self.agent_id}@{window}{suffix}"


@dataclass(frozen=True)
class PartitionFault:
    """Split the population into groups over ``[start_slot, end_slot)``.

    ``groups`` name disjoint sets of agent ids; agents named in no group
    implicitly form one extra group together.  While the partition is
    active, any message whose sender and destination fall in different
    groups is dropped by :class:`PartitionedNetwork`.
    ``end_slot=None`` expresses an unrecoverable partition (never heals).
    """

    groups: Tuple[FrozenSet[str], ...]
    start_slot: int
    end_slot: Optional[int] = None

    def __post_init__(self) -> None:
        groups = tuple(frozenset(group) for group in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise SimulationError("a partition needs at least one group")
        named: set = set()
        for group in groups:
            overlap = named & group
            if overlap:
                raise SimulationError(
                    f"partition groups overlap on {sorted(overlap)}"
                )
            named |= group
        if self.start_slot < 0:
            raise SimulationError(
                f"start_slot must be >= 0, got {self.start_slot}"
            )
        if self.end_slot is not None and self.end_slot <= self.start_slot:
            raise SimulationError(
                f"end_slot must be after start_slot, got "
                f"[{self.start_slot}, {self.end_slot})"
            )

    @classmethod
    def parse(cls, spec: str) -> "PartitionFault":
        """Parse ``G1|G2|...@START[-END]`` (the CLI/manifest syntax).

        Groups are comma-separated agent ids; the literal group ``rest``
        is shorthand for the implicit remainder group and is dropped
        (unnamed agents always form their own group).  Example:
        ``buyer:0,buyer:1|rest@5-20``.
        """
        body, at, window = spec.rpartition("@")
        if not at or not body:
            raise SimulationError(
                f"bad partition spec {spec!r}: missing 'GROUPS@START_SLOT'"
            )
        start_text, dash, end_text = window.partition("-")
        groups = tuple(
            frozenset(part for part in group.split(",") if part)
            for group in body.split("|")
            if group and group != "rest"
        )
        try:
            return cls(
                groups=groups,
                start_slot=int(start_text),
                end_slot=int(end_text) if dash else None,
            )
        except ValueError as exc:
            raise SimulationError(
                f"bad partition spec {spec!r}: {exc}"
            ) from None

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (used by durable-run manifests)."""
        body = "|".join(
            ",".join(sorted(group)) for group in self.groups
        ) or "rest"
        window = str(self.start_slot)
        if self.end_slot is not None:
            window += f"-{self.end_slot}"
        return f"{body}@{window}"

    def active(self, now: int) -> bool:
        """Whether the partition is in force at slot ``now``."""
        if now < self.start_slot:
            return False
        return self.end_slot is None or now < self.end_slot

    def separates(self, sender: str, destination: str) -> bool:
        """Whether a ``sender -> destination`` message crosses groups."""
        sender_group = destination_group = -1  # -1: the implicit remainder
        for index, group in enumerate(self.groups):
            if sender in group:
                sender_group = index
            if destination in group:
                destination_group = index
        return sender_group != destination_group


@dataclass(frozen=True)
class MessageFault:
    """Drop or delay messages of the named types over a slot window.

    ``message_types`` are message *class names* (``"Propose"``,
    ``"TransferAnswer"``, ...; for ARQ-wrapped populations the wire types
    are ``"DataFrame"`` / ``"AckFrame"``).  ``sender`` / ``destination``
    of ``None`` match any endpoint.  ``action="drop"`` loses the message;
    ``action="delay"`` defers its delivery by ``delay`` extra slots.
    """

    message_types: Tuple[str, ...]
    start_slot: int = 0
    end_slot: Optional[int] = None
    action: str = "drop"
    delay: int = 0
    sender: Optional[str] = None
    destination: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "message_types", tuple(self.message_types))
        if not self.message_types:
            raise SimulationError("a message fault needs at least one type")
        if self.action not in ("drop", "delay"):
            raise SimulationError(
                f"action must be 'drop' or 'delay', got {self.action!r}"
            )
        if self.action == "delay" and self.delay < 1:
            raise SimulationError(
                f"a delay fault needs delay >= 1, got {self.delay}"
            )
        if self.end_slot is not None and self.end_slot <= self.start_slot:
            raise SimulationError(
                f"end_slot must be after start_slot, got "
                f"[{self.start_slot}, {self.end_slot})"
            )

    def matches(self, now: int, sender: str, destination: str,
                message: Message) -> bool:
        """Whether this fault applies to ``message`` at slot ``now``."""
        if now < self.start_slot:
            return False
        if self.end_slot is not None and now >= self.end_slot:
            return False
        if type(message).__name__ not in self.message_types:
            return False
        if self.sender is not None and sender != self.sender:
            return False
        if self.destination is not None and destination != self.destination:
            return False
        return True


class FaultSchedule:
    """Immutable, validated bundle of crash/partition/message faults.

    The kernel executes crashes and restarts (node faults); partitions and
    message faults (link faults) need per-message sender/destination
    visibility and are enforced by :class:`PartitionedNetwork` -- the
    kernel auto-wraps its network when :attr:`has_network_faults` is set,
    so passing one ``FaultSchedule`` to the simulator (or to
    ``run_distributed_matching``) activates everything declared here.
    """

    def __init__(
        self,
        crashes: Sequence[CrashFault] = (),
        partitions: Sequence[PartitionFault] = (),
        message_faults: Sequence[MessageFault] = (),
    ) -> None:
        self.crashes: Tuple[CrashFault, ...] = tuple(crashes)
        self.partitions: Tuple[PartitionFault, ...] = tuple(partitions)
        self.message_faults: Tuple[MessageFault, ...] = tuple(message_faults)

        # Per agent: crash windows must be chronological and disjoint
        # (an agent cannot crash again before its previous restart).
        by_agent: Dict[str, List[CrashFault]] = {}
        for crash in self.crashes:
            by_agent.setdefault(crash.agent_id, []).append(crash)
        for agent_id, faults in by_agent.items():
            faults.sort(key=lambda f: f.crash_slot)
            for earlier, later in zip(faults, faults[1:]):
                if earlier.restart_slot is None:
                    raise SimulationError(
                        f"agent {agent_id!r} crashes at "
                        f"{later.crash_slot} but never restarts from the "
                        f"crash at {earlier.crash_slot}"
                    )
                if later.crash_slot < earlier.restart_slot:
                    raise SimulationError(
                        f"agent {agent_id!r} crash windows overlap: "
                        f"restart at {earlier.restart_slot} vs crash at "
                        f"{later.crash_slot}"
                    )
        self._crashes_by_slot: Dict[int, List[CrashFault]] = {}
        self._restarts_by_slot: Dict[int, List[CrashFault]] = {}
        for crash in self.crashes:
            self._crashes_by_slot.setdefault(crash.crash_slot, []).append(crash)
            if crash.restart_slot is not None:
                self._restarts_by_slot.setdefault(
                    crash.restart_slot, []
                ).append(crash)
        #: Slots with a crash or restart, ascending.
        self._node_event_slots: List[int] = sorted(
            {*self._crashes_by_slot, *self._restarts_by_slot}
        )
        #: Slot after which no crash/restart event remains.
        self.last_node_event_slot = (
            self._node_event_slots[-1] if self._node_event_slots else -1
        )

    # ------------------------------------------------------------------
    # Queries used by the kernel
    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self.crashes or self.partitions or self.message_faults)

    @property
    def has_network_faults(self) -> bool:
        """Whether enforcement needs a :class:`PartitionedNetwork`."""
        return bool(self.partitions or self.message_faults)

    def crashes_at(self, slot: int) -> List[CrashFault]:
        return self._crashes_by_slot.get(slot, [])

    def restarts_at(self, slot: int) -> List[CrashFault]:
        return self._restarts_by_slot.get(slot, [])

    def next_node_event_slot(self, slot: int) -> Optional[int]:
        """The first slot at or after ``slot`` with a crash or restart."""
        slots = self._node_event_slots
        i = bisect_left(slots, slot)
        return slots[i] if i < len(slots) else None

    def partitions_starting_at(self, slot: int) -> List[PartitionFault]:
        return [p for p in self.partitions if p.start_slot == slot]

    def partitions_ending_at(self, slot: int) -> List[PartitionFault]:
        return [p for p in self.partitions if p.end_slot == slot]

    def amnesiac_agents(self) -> List[str]:
        """Agents needing a pristine snapshot at simulation start."""
        return sorted(
            {
                c.agent_id
                for c in self.crashes
                if c.restart_slot is not None and c.mode is RestartMode.AMNESIA
            }
        )

    def blocks(self, now: int, sender: str, destination: str) -> bool:
        """Whether an active partition separates the two endpoints."""
        return any(
            p.active(now) and p.separates(sender, destination)
            for p in self.partitions
        )

    def message_fault_for(
        self, now: int, sender: str, destination: str, message: Message
    ) -> Optional[MessageFault]:
        """First message fault applying to ``message``, if any."""
        for fault in self.message_faults:
            if fault.matches(now, sender, destination, message):
                return fault
        return None


class PartitionedNetwork(Network):
    """Network wrapper enforcing a schedule's partitions and message faults.

    Surviving messages are routed by ``base`` (reliable by default).  The
    wrapper reads each message's endpoints and type, which
    :meth:`Network.route` receives, and is transparent to agents.
    Partition and targeted-type drops are counted separately
    (:attr:`partition_drops` / :attr:`targeted_drops`) on top of the
    kernel's aggregate ``messages_dropped``.
    """

    def __init__(
        self, schedule: FaultSchedule, base: Optional[Network] = None
    ) -> None:
        self._schedule = schedule
        self._base = base if base is not None else ReliableNetwork()
        self._partition_drops = 0
        self._targeted_drops = 0

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    @property
    def partition_drops(self) -> int:
        """Messages dropped because a partition separated the endpoints."""
        return self._partition_drops

    @property
    def targeted_drops(self) -> int:
        """Messages dropped by type-targeted :class:`MessageFault` rules."""
        return self._targeted_drops

    def drops_snapshot(self) -> Dict[str, int]:
        """Checkpointable view of the wrapper's drop counters.

        The wrapped ``base`` network is stateless (its verdicts depend
        only on the simulator RNG, which is checkpointed separately), so
        these two counters are the only mutable state a durable run must
        carry across a crash/resume boundary.
        """
        return {
            "partition_drops": self._partition_drops,
            "targeted_drops": self._targeted_drops,
        }

    def restore_drops(self, state: Dict[str, int]) -> None:
        """Reset the drop counters from a :meth:`drops_snapshot`."""
        self._partition_drops = int(state["partition_drops"])
        self._targeted_drops = int(state["targeted_drops"])

    def route(
        self,
        now: int,
        rng: np.random.Generator,
        sender: str,
        destination: str,
        message: Message,
    ) -> Optional[int]:
        if self._schedule.blocks(now, sender, destination):
            self._partition_drops += 1
            return None
        fault = self._schedule.message_fault_for(now, sender, destination, message)
        if fault is not None and fault.action == "drop":
            self._targeted_drops += 1
            return None
        verdict = self._base.route(now, rng, sender, destination, message)
        if verdict is None:
            return None
        if fault is not None:  # action == "delay"
            verdict += fault.delay
        return verdict
