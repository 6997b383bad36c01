"""Message-delivery models for the time-slotted simulator.

The paper assumes a reliable synchronous network (one round per slot).
Real deployments are messier, so the kernel accepts a pluggable
:class:`Network` deciding, per message, the delivery slot -- or that the
message is lost.  The failure-injection tests use :class:`DelayedNetwork`
and :class:`LossyNetwork` to check which protocol invariants survive
(interference-freedom always; Nash stability only under reliable
delivery, mirroring the paper's assumption).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (messages only)
    from repro.distributed.messages import Message

__all__ = ["Network", "ReliableNetwork", "DelayedNetwork", "LossyNetwork"]


class Network:
    """Delivery-model interface.

    The kernel calls :meth:`route` once per message, with its endpoints,
    and gets back the delivery slot, or ``None`` to drop the message.
    The models here ignore the endpoints; partitions and targeted message
    faults (:class:`~repro.distributed.faults.PartitionedNetwork`) read
    them.
    """

    def route(
        self,
        now: int,
        rng: np.random.Generator,
        sender: str,
        destination: str,
        message: "Message",
    ) -> Optional[int]:
        raise NotImplementedError


class ReliableNetwork(Network):
    """Same-slot delivery (the paper's synchronous model).

    Combined with the kernel's priority scheduling, a buyer's slot-``t``
    message is processed by a seller in slot ``t`` and the reply reaches
    the buyer in slot ``t+1`` -- one paper round per slot.
    """

    def route(self, now, rng, sender, destination, message) -> Optional[int]:
        return now


class DelayedNetwork(Network):
    """Delivery after a (possibly random) positive delay.

    Parameters
    ----------
    min_delay / max_delay:
        Delivery happens uniformly in ``[now + min_delay, now + max_delay]``
        (inclusive).  ``min_delay=0, max_delay=0`` reduces to
        :class:`ReliableNetwork`.
    """

    def __init__(self, min_delay: int = 1, max_delay: int = 1) -> None:
        if min_delay < 0 or max_delay < min_delay:
            raise SimulationError(
                f"need 0 <= min_delay <= max_delay, got [{min_delay}, {max_delay}]"
            )
        self._min = min_delay
        self._max = max_delay

    def route(self, now, rng, sender, destination, message) -> Optional[int]:
        if self._min == self._max:
            return now + self._min
        return now + int(rng.integers(self._min, self._max + 1))


class LossyNetwork(Network):
    """Drop each message independently with probability ``loss_rate``.

    Surviving messages are routed by the wrapped ``base`` network
    (reliable by default).  Note the matching protocol is NOT designed to
    tolerate loss -- the paper assumes reliability -- so this model exists
    to *demonstrate* which safety invariants still hold and which liveness
    properties break; see ``tests/distributed/test_failure_injection.py``.
    """

    def __init__(self, loss_rate: float, base: Optional[Network] = None) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise SimulationError(
                f"loss_rate must lie in [0, 1], got {loss_rate}"
            )
        self._loss_rate = loss_rate
        self._base = base if base is not None else ReliableNetwork()

    def route(self, now, rng, sender, destination, message) -> Optional[int]:
        if rng.random() < self._loss_rate:
            return None
        return self._base.route(now, rng, sender, destination, message)
