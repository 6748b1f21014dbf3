"""The unified clock/transport contract of the protocol stack.

Everything above this layer -- communication objects, replication
components, workload deployments -- is written against exactly two
substrate capabilities:

- a :class:`Clock` that tells the current time and schedules callbacks
  (and owns the run's seeded RNG);
- a :class:`Transport` that delivers datagrams between named nodes.

Three hub-side pairs exist: the deterministic virtual-time pair
(:class:`~repro.sim.kernel.Simulator` + :class:`~repro.net.network.Network`),
the wall-clock pair (:class:`~repro.runtime.live.LiveLoop` +
:class:`~repro.runtime.live.LiveNetwork`) and the multi-process pair
(``LiveLoop`` + :class:`~repro.runtime.socket.SocketNetwork`); the two
wall-clock transports inherit ``Network``'s datagram path.  Inside a
``live-socket`` node process,
:class:`~repro.runtime.node.NodeTransport` satisfies :class:`Transport`
as a pure framing bridge to the hub.  Because all satisfy these
protocols, the identical replication protocol stack runs in simulated and
real time; any future substrate (an SSH pool, a shared-memory transport)
only needs to implement these two interfaces.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.sim.rng import SeededRng

#: A transport receive handler: ``handler(src, payload, size_bytes)``.
ReceiveHandler = Callable[[str, object, int], None]


@runtime_checkable
class Clock(Protocol):
    """Time and deferred execution, virtual or wall-clock.

    A cancellable handle is returned by :meth:`schedule`; the only
    requirement on it is a ``cancel()`` method.
    """

    #: The run-wide seeded random number generator.
    rng: SeededRng

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or since-epoch monotonic)."""
        ...

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any,
        daemon: bool = False,
    ) -> Any:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a handle.

        ``daemon`` marks periodic housekeeping that must not keep a
        drain-to-idle run alive.
        """
        ...


@runtime_checkable
class Transport(Protocol):
    """Datagram delivery between named nodes.

    Delivery calls the destination's registered handler on the protocol
    thread (the simulator's event loop or the live dispatcher), so
    protocol state above the transport needs no locks.
    """

    def register(self, node: str, handler: ReceiveHandler) -> None:
        """Attach a node; datagrams addressed to it invoke ``handler``."""
        ...

    def unregister(self, node: str) -> None:
        """Detach a node; subsequent datagrams to it are dropped."""
        ...

    def send(
        self, src: str, dst: str, payload: object,
        size_bytes: int = 0, reliable: bool = True,
    ) -> None:
        """Send one datagram; ``reliable`` selects the delivery class."""
        ...

    def multicast(
        self, src: str, dsts: Sequence[str], payload: object,
        size_bytes: int = 0, reliable: bool = True,
    ) -> None:
        """Send the same payload to every destination (skipping ``src``)."""
        ...
