"""The communication sub-object.

One :class:`CommunicationObject` exists per address space per distributed
object (in practice, one per local object).  It exposes exactly the
primitives the paper names: point-to-point ``send``, a receive handler,
``send/receive`` request-reply, and multicast.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.comm.message import Message
from repro.sim.errors import SimulationError
from repro.sim.future import Future
from repro.transport.interface import Clock, Transport

#: Handler for unsolicited messages: ``handler(src_address, message)``.
MessageHandler = Callable[[str, Message], None]


class RequestTimeout(SimulationError):
    """Raised inside a waiting process when a request exceeds its timeout."""


class CommunicationObject:
    """Point-to-point + multicast messaging bound to one network address.

    Parameters
    ----------
    sim, network:
        The substrate, as the unified :class:`~repro.transport.interface.
        Clock` and :class:`~repro.transport.interface.Transport` protocols
        -- the simulated pair or the wall-clock pair interchangeably.
    address:
        This address space's network name.
    reliable:
        Transport class for all outgoing traffic: ``True`` models TCP
        (no loss, per-pair FIFO), ``False`` models UDP (loss, reordering).
    """

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        address: str,
        reliable: bool = True,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.reliable = reliable
        self.messages_sent = 0
        self.bytes_sent = 0
        self._handler: Optional[MessageHandler] = None
        self._pending: Dict[int, Future] = {}
        network.register(address, self._on_datagram)

    def close(self) -> None:
        """Detach from the network and fail all pending requests."""
        self.network.unregister(self.address)
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done:
                future.set_error(RequestTimeout("endpoint closed"))

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the unsolicited-message handler (the control object)."""
        self._handler = handler

    # -- primitives -------------------------------------------------------

    def send(self, dst: str, message: Message) -> None:
        """One-way send; also the reply path (:attr:`reply`)."""
        size = message._size
        if size is None:
            size = message.payload_size()
        self.messages_sent += 1
        self.bytes_sent += size
        self.network.send(
            self.address, dst, message, size_bytes=size, reliable=self.reliable
        )

    def multicast(self, dsts: Sequence[str], message: Message) -> None:
        """Send the same message to several destinations.

        Sizes the message once and hands the whole fan-out to the
        transport's ``multicast``, which skips self-addressing exactly
        like the historical loop of :meth:`send` calls did.
        """
        targets = [dst for dst in dsts if dst != self.address]
        if not targets:
            return
        size = message.payload_size()
        self.messages_sent += len(targets)
        self.bytes_sent += len(targets) * size
        self.network.multicast(
            self.address, targets, message, size_bytes=size,
            reliable=self.reliable,
        )

    def request(
        self,
        dst: str,
        message: Message,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> Future:
        """Send/receive: returns a future resolved with the reply message.

        With an unreliable transport the request or the reply may be lost;
        ``timeout`` plus ``retries`` gives at-least-once behaviour.  When
        retries are exhausted the future fails with :class:`RequestTimeout`.
        """
        future = Future()
        self._pending[message.msg_id] = future
        if timeout is None:
            self.send(dst, message)
        else:
            self._transmit_request(dst, message, future, timeout, retries)
        return future

    #: Send a response built with :meth:`Message.reply`.
    reply = send

    # -- internals ----------------------------------------------------------

    def _transmit_request(
        self,
        dst: str,
        message: Message,
        future: Future,
        timeout: float,
        retries_left: int,
    ) -> None:
        if future.done:
            return
        self.send(dst, message)

        def on_timeout() -> None:
            if future.done:
                return
            if retries_left > 0:
                self._transmit_request(
                    dst, message, future, timeout, retries_left - 1
                )
            else:
                self._pending.pop(message.msg_id, None)
                future.set_error(
                    RequestTimeout(
                        f"request {message.kind}#{message.msg_id} to {dst} timed out"
                    )
                )

        self.sim.schedule(timeout, on_timeout)

    def _on_datagram(self, src: str, payload: object, size_bytes: int) -> None:
        if not isinstance(payload, Message):
            return
        if payload.reply_to is not None:
            future = self._pending.pop(payload.reply_to, None)
            if future is not None and not future.done:
                future.set_result(payload)
                return
            # A late duplicate reply (retry already satisfied): drop it.
            return
        if self._handler is not None:
            self._handler(src, payload)
