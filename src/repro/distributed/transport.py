"""Reliable in-order transport over unreliable networks.

The matching protocol's handshakes assume reliable delivery (Section IV;
see ``tests/distributed/test_failure_injection.py`` for how they deadlock
under loss).  This module supplies the classic remedy: a per-agent
transport layer providing **at-least-once delivery with deduplication and
per-sender FIFO ordering** -- i.e. the protocol-visible semantics of the
reliable network -- on top of an arbitrary lossy/delaying
:class:`~repro.distributed.network.Network`.

Mechanics (positive-acknowledgement ARQ):

* every application message is wrapped in a :class:`DataFrame` carrying a
  per-(sender, receiver) sequence number and buffered until acknowledged;
* receivers acknowledge every data frame (including duplicates, covering
  lost acks), deduplicate by sequence number, and release payloads to the
  wrapped agent strictly in sequence order (a hold-back queue reorders
  late frames);
* unacknowledged frames are retransmitted every ``retransmit_interval``
  slots.

Wrap a whole agent population with :func:`wrap_reliable` and run it on a
:class:`LossyNetwork`; the end-to-end test shows the matching protocol
then terminates with the same matching as over a perfect network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distributed.messages import Message
from repro.distributed.simulator import Agent, SlotContext
from repro.errors import SimulationError

__all__ = ["DataFrame", "AckFrame", "ReliableAgent", "wrap_reliable"]


@dataclass(frozen=True)
class DataFrame(Message):
    """Transport envelope: ``payload`` is the application message."""

    seq: int
    payload: Message


@dataclass(frozen=True)
class AckFrame(Message):
    """Acknowledgement of the data frame with sequence number ``seq``."""

    seq: int


@dataclass
class _PendingFrame:
    destination: str
    frame: DataFrame
    last_sent: int
    #: Causal msg id of the original send (None when tracing is off or the
    #: frame was restored from a pre-crash checkpoint).
    sent_id: Optional[int] = None


class ReliableAgent(Agent):
    """Decorator agent adding ARQ semantics around an inner agent.

    The wrapper keeps the inner agent's id and priority, so populations
    can be wrapped transparently.  The inner agent never sees transport
    frames -- only deduplicated, in-order application messages -- and its
    outgoing sends are transparently wrapped and buffered.

    Parameters
    ----------
    inner:
        The application agent.
    retransmit_interval:
        Slots between retransmissions of an unacknowledged frame.
    """

    def __init__(self, inner: Agent, retransmit_interval: int = 4) -> None:
        super().__init__(inner.agent_id, priority=inner.priority)
        if retransmit_interval < 1:
            raise SimulationError(
                f"retransmit_interval must be >= 1, got {retransmit_interval}"
            )
        self.inner = inner
        self._interval = retransmit_interval
        self._next_seq: Dict[str, int] = {}
        self._pending: List[_PendingFrame] = []
        #: Highest contiguously delivered sequence number per sender.
        self._delivered_up_to: Dict[str, int] = {}
        #: Out-of-order frames held back per sender: seq -> payload.
        self._holdback: Dict[str, Dict[int, Message]] = {}
        self._retransmissions = 0

    # ------------------------------------------------------------------
    # Introspection (used by tests and traffic accounting)
    # ------------------------------------------------------------------
    @property
    def retransmissions(self) -> int:
        """Total frames retransmitted so far."""
        return self._retransmissions

    @property
    def unacknowledged(self) -> int:
        """Frames currently awaiting acknowledgement."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Agent interface
    # ------------------------------------------------------------------
    def step(self, inbox: List[Message], ctx: SlotContext) -> None:
        deliverable: List[Message] = []
        for message in inbox:
            ctx.set_cause(message)
            if isinstance(message, AckFrame):
                self._pending = [
                    p
                    for p in self._pending
                    if not (
                        p.destination == message.sender
                        and p.frame.seq == message.seq
                    )
                ]
            elif isinstance(message, DataFrame):
                # Always ack, even duplicates: the previous ack may be lost.
                ctx.send(message.sender, AckFrame(self.agent_id, message.seq))
                released = self._accept(message)
                # Payloads inherit the delivering frame's causal id, so the
                # inner agent's sends chain through the transport envelope.
                ctx.alias_cause(message, released)
                deliverable.extend(released)
            else:
                raise SimulationError(
                    f"reliable agent {self.agent_id} received a bare "
                    f"application message {message!r}; wrap ALL agents"
                )

        shim = SlotContext(
            now=ctx.now,
            rng=ctx.rng,
            _send=lambda destination, payload: self._buffer_send(
                destination, payload, ctx
            ),
            _causal=ctx._causal,
        )
        self.inner.step(deliverable, shim)

        # Retransmit anything that has been in flight too long.  Each
        # retransmission is parented to the original send occurrence, so
        # duplicate deliveries show up on the same causal chain.
        for pending in self._pending:
            if ctx.now - pending.last_sent >= self._interval:
                pending.last_sent = ctx.now
                self._retransmissions += 1
                ctx.set_cause_id(pending.sent_id)
                ctx.send(pending.destination, pending.frame)

    def next_wake(self, now: int) -> Optional[int]:
        """The inner agent's wake or the earliest retransmission, if sooner.

        A frame sent at ``last_sent`` is retransmitted at ``last_sent +
        retransmit_interval``; acks and data frames arrive as messages.
        """
        wake = self.inner.next_wake(now)
        if self._pending:
            retransmit = (
                min(pending.last_sent for pending in self._pending)
                + self._interval
            )
            wake = retransmit if wake is None else min(wake, retransmit)
        return wake

    def _accept(self, frame: DataFrame) -> List[Message]:
        """Dedup + reorder; return payloads now deliverable in order."""
        sender = frame.sender
        delivered = self._delivered_up_to.get(sender, -1)
        if frame.seq <= delivered:
            return []  # duplicate
        held = self._holdback.setdefault(sender, {})
        held[frame.seq] = frame.payload
        released: List[Message] = []
        while delivered + 1 in held:
            delivered += 1
            released.append(held.pop(delivered))
        self._delivered_up_to[sender] = delivered
        return released

    def _buffer_send(
        self, destination: str, payload: Message, ctx: SlotContext
    ) -> Optional[int]:
        seq = self._next_seq.get(destination, 0)
        self._next_seq[destination] = seq + 1
        frame = DataFrame(self.agent_id, seq, payload)
        pending = _PendingFrame(
            destination=destination, frame=frame, last_sent=ctx.now
        )
        self._pending.append(pending)
        pending.sent_id = ctx.send(destination, frame)
        return pending.sent_id

    def is_done(self) -> bool:
        return (
            self.inner.is_done()
            and not self._pending
            and not any(self._holdback.values())
        )

    # ------------------------------------------------------------------
    # Crash/restart support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint transport state *and* the inner agent's state.

        The sequence counters, unacknowledged send buffer and receive-side
        dedup/hold-back state are all part of the checkpoint: a restarted
        agent resumes retransmitting exactly the frames its peers never
        acknowledged, and keeps deduplicating frames its pre-crash self
        already delivered.  (Amnesiac restart is deliberately unsupported
        under ARQ -- sequence numbers reborn at zero are indistinguishable
        from duplicates; see :class:`~repro.distributed.faults.RestartMode`.)
        """
        return {
            "next_seq": dict(self._next_seq),
            "pending": [
                (p.destination, p.frame, p.last_sent) for p in self._pending
            ],
            "delivered_up_to": dict(self._delivered_up_to),
            "holdback": {
                sender: dict(held) for sender, held in self._holdback.items()
            },
            "retransmissions": self._retransmissions,
            "inner": self.inner.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._next_seq = dict(state["next_seq"])
        self._pending = [
            _PendingFrame(destination=destination, frame=frame, last_sent=last_sent)
            for destination, frame, last_sent in state["pending"]
        ]
        self._delivered_up_to = dict(state["delivered_up_to"])
        self._holdback = {
            sender: dict(held) for sender, held in state["holdback"].items()
        }
        self._retransmissions = state["retransmissions"]
        self.inner.restore(state["inner"])

    def causal_sent_ids(self) -> List[Optional[int]]:
        """Causal msg ids of the pending frames, in buffer order.

        Not part of :meth:`snapshot`: an *in-world* restarted agent
        legitimately forgets the causal ids of its pre-crash sends (its
        retransmissions start fresh chains).  A *process-level* resume
        (:mod:`repro.runtime`) must instead reproduce the uninterrupted
        trace exactly, so the kernel snapshot carries these separately
        and reapplies them after :meth:`restore`.
        """
        return [pending.sent_id for pending in self._pending]

    def restore_causal_sent_ids(self, ids: List[Optional[int]]) -> None:
        for pending, sent_id in zip(self._pending, ids):
            pending.sent_id = sent_id


def wrap_reliable(
    agents: List[Agent], retransmit_interval: int = 4
) -> List[ReliableAgent]:
    """Wrap an agent population for ARQ transport (all or nothing)."""
    return [ReliableAgent(agent, retransmit_interval) for agent in agents]
