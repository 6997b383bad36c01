"""Protocol messages exchanged by buyer and seller agents.

All messages are immutable dataclasses carrying integer buyer/channel ids.
Agent identifiers on the wire are strings (``"buyer:<j>"`` /
``"seller:<i>"``, see :mod:`repro.distributed.protocol`); the payloads use
raw ids so messages stay trivially serialisable.

One reply kind per request
--------------------------
Every request has exactly one reply kind, whose fields carry the verdict:

* ``Propose`` -> ``Stage1Decision``: the seller's current coalition; the
  buyer is admitted iff she is in it.  A seller sends a decision to every
  buyer the decision concerns: the members (still in), the displaced (no
  longer in) and the rejected proposers (never in).
* ``TransferApply`` -> ``TransferVerdict(offered)`` -> ``TransferAnswer
  (take)``: Stage II acceptances are *offer/confirm* handshakes, because
  an asynchronous buyer may have found a better match between applying
  and being accepted; the seller only commits a buyer who takes the
  offer, so coalitions never go stale.
* ``Invite`` -> ``InviteAnswer(accept)``, with at most one invitation
  outstanding per seller.

``SellerStageNotify`` and ``Leave`` are one-way notices.  No message
carries a sequence number or slot stamp: a buyer tells a fresh Stage-I
decision from a stale one by its sender alone (see
:class:`~repro.distributed.buyer_agent.BuyerAgent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

__all__ = [
    "Message",
    "Propose",
    "Stage1Decision",
    "SellerStageNotify",
    "TransferApply",
    "TransferVerdict",
    "TransferAnswer",
    "Invite",
    "InviteAnswer",
    "Leave",
]


@dataclass(frozen=True)
class Message:
    """Base class; ``sender`` is the wire id of the originating agent."""

    sender: str


# ----------------------------------------------------------------------
# Stage I
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Propose(Message):
    """Buyer -> seller: Stage I proposal (Algorithm 1, line 7)."""

    buyer: int


@dataclass(frozen=True)
class Stage1Decision(Message):
    """Seller -> buyer: my coalition after this slot's proposals.

    The recipient is admitted iff she is in ``coalition``; otherwise she
    was displaced or her proposal was declined (always so after the
    seller's stage transition: "a seller cannot grant proposals anymore",
    Section IV-B).  ``proposers_so_far`` is the cumulative set of buyers
    who have ever proposed to this seller.  That context is what lets
    buyers evaluate transition rules I and II locally (Section IV-A):
    rule I needs to know which interfering neighbours have already
    proposed; rule II needs the count of those who have not.
    """

    channel: int
    coalition: FrozenSet[int]
    proposers_so_far: FrozenSet[int]


@dataclass(frozen=True)
class SellerStageNotify(Message):
    """Seller -> her matched buyers: I transitioned to Stage II.

    Receiving this guarantees the buyer will never be evicted, triggering
    buyer transition rule III (Section IV-A).
    """

    channel: int


# ----------------------------------------------------------------------
# Stage II Phase 1: transfer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransferApply(Message):
    """Buyer -> seller: transfer application (Algorithm 2, line 8)."""

    buyer: int


@dataclass(frozen=True)
class TransferVerdict(Message):
    """Seller -> buyer: the verdict on a transfer application.

    An offer (``offered``) reserves a coalition slot until the buyer
    answers; offers are mutually non-interfering by construction.  A
    refused applicant joins the seller's invitation list.
    """

    channel: int
    offered: bool


@dataclass(frozen=True)
class TransferAnswer(Message):
    """Buyer -> seller: ``take`` commits the offered slot, otherwise the
    seller releases it."""

    buyer: int
    take: bool


# ----------------------------------------------------------------------
# Stage II Phase 2: invitation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Invite(Message):
    """Seller -> previously rejected buyer (Algorithm 2, line 25)."""

    channel: int


@dataclass(frozen=True)
class InviteAnswer(Message):
    """Buyer -> seller: ``accept`` joins the coalition (the buyer also
    Leaves her old seller); otherwise her current match is at least as
    good and she stays."""

    buyer: int
    accept: bool


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Leave(Message):
    """Buyer -> her previous seller: I moved elsewhere; drop me.

    Implicit in the paper's centralised formulation (updating ``mu`` removes
    the buyer from the old coalition); the distributed protocol needs an
    explicit message so the old seller's local coalition view stays correct.
    """

    buyer: int
