"""Datagram-level network: the one send -> arrive path of every substrate.

The :class:`Network` connects named nodes.  It delivers raw datagrams with a
latency model, an optional loss rate, and optional partitions.  Two delivery
classes are offered to the transport layer above:

- **unreliable** datagrams may be dropped by loss or partitions and arrive
  in whatever order their sampled delays dictate (UDP);
- **reliable** datagrams are never dropped -- loss is assumed to be masked
  by retransmission -- and are delivered FIFO per (src, dst) pair; during a
  partition they queue and flush on heal (TCP).

This split mirrors the paper's prototype, which used TCP "for the sake of
simplicity" while observing that the coherence protocol's own ordering would
permit UDP (Section 4.2; measured in experiment X5).

**One path.**  :meth:`Network.send` and :meth:`Network.multicast` run
each recipient through the one gate, :meth:`Network._admit`, and hand the
admitted ones as a list to :meth:`Network._schedule_arrival`;
:meth:`Network._arrive` hands such a list over in order.  A unicast is a
list of one, and a multicast landing at one instant is one event.  The
wall-clock :class:`~repro.runtime.live.LiveNetwork` and the multi-process
:class:`~repro.runtime.socket.SocketNetwork` inherit all of this and
supply only what genuinely differs per substrate:

- the clock (``Network.sim``: a ``Simulator`` or a ``LiveLoop``);
- :meth:`Network._schedule_arrival` -- virtual time, the model's fixed
  delay, the reliable FIFO clamp and one event per distinct arrival time
  here, one ``LiveLoop.schedule`` per recipient there;
- :attr:`Network.MEMBERSHIP_AT_SEND` -- whether the gate rejects an
  unregistered source and drops an unknown destination up front.

An arrival's one ``dict.get`` on the handler table is atomic under the
GIL, so the wall-clock substrates lock only membership changes.

The fault gate and the trace hooks are data on that path, not a second
lane: the gate reads ``_faults_active`` (kept by
:class:`~repro.faults.transport.FaultableTransportMixin`, which owns the
partition / heal / crash state) and ``repro.obs.tracer.ACTIVE``, and a
healthy, untraced network pays exactly those two reads per datagram.
The latency model is asked once, when it is assigned to
:attr:`Network.latency`, whether it has a single delay for every datagram
(:meth:`~repro.net.latency.LatencyModel.fixed_delay`); only a model
without one is called per datagram.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.faults.transport import FaultableTransportMixin
from repro.net.latency import ConstantLatency, LatencyModel
from repro.obs import tracer as _obs
from repro.sim.kernel import Simulator

#: A receive handler: ``handler(src, payload, size_bytes)``.
ReceiveHandler = Callable[[str, object, int], None]


@dataclasses.dataclass(slots=True)
class NetworkStats:
    """Counters for everything the network carried or dropped.

    Both the simulated and the live transport fill the same counter set,
    so fault metrics aggregate identically across backends.  Counter
    bumps are plain slotted-attribute writes; readers (traffic and
    fault metrics, the benchmark) read the fields or :meth:`as_dict`.
    """

    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_dropped_loss: int = 0
    datagrams_dropped_partition: int = 0
    datagrams_dropped_crashed: int = 0
    datagrams_dropped_unregistered: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Wire frames the socket backend's hub wrote to / read from node
    #: channels (data + control); zero on the in-process transports.
    frames_sent: int = 0
    frames_received: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain ``{field: value}`` dict."""
        return dataclasses.asdict(self)


class NodeNotRegistered(KeyError):
    """Raised when sending from a node that never registered a handler."""


class Network(FaultableTransportMixin):
    """Datagram network between named nodes, in virtual time.

    Also the core the wall-clock substrates specialise: see the module
    docstring for the three things a subclass supplies.  ``sim`` is the
    clock the network runs on -- a ``Simulator`` here, the ``LiveLoop``
    when a wall-clock subclass constructs it.
    """

    #: Whether :meth:`_admit` enforces membership: an unregistered source
    #: raises :class:`NodeNotRegistered` and an unknown destination is
    #: dropped before the fault gate.  The wall-clock substrates accept
    #: any source (node processes and ad-hoc senders are not in the
    #: handler table) and notice a missing destination on arrival.
    MEMBERSHIP_AT_SEND = True

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.sim = sim
        self.latency = latency or ConstantLatency()
        self.stats = NetworkStats()
        self._handlers: Dict[str, ReceiveHandler] = {}
        self._fifo_clock: Dict[Tuple[str, str], float] = {}
        self._init_faults(
            loss_rng=sim.rng.fork("network-loss"), loss_rate=loss_rate
        )

    @property
    def latency(self) -> LatencyModel:
        """The latency model datagram delays are sampled from."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        """Swap the latency model and ask it for its fixed delay."""
        self._latency = model
        self._fixed_delay = model.fixed_delay()

    # -- membership -----------------------------------------------------------

    def register(self, node: str, handler: ReceiveHandler) -> None:
        """Attach a node; datagrams addressed to it invoke ``handler``."""
        self._handlers[node] = handler

    def unregister(self, node: str) -> None:
        """Detach a node; subsequent datagrams to it are dropped."""
        self._handlers.pop(node, None)

    def is_registered(self, node: str) -> bool:
        """Whether a node currently has a receive handler."""
        return node in self._handlers

    def _obs_now(self) -> float:
        """Trace timestamps come from the substrate's clock."""
        return self.sim.now

    # -- the datagram path ----------------------------------------------------

    def send(self, src: str, dst: str, payload: object,
             size_bytes: int = 0, reliable: bool = True) -> None:
        """Send one datagram.  ``reliable`` selects the delivery class."""
        if self._admit(src, dst, payload, size_bytes, reliable):
            self._schedule_arrival(src, (dst,), payload, size_bytes, reliable)

    def multicast(self, src: str, dsts: Sequence[str], payload: object,
                  size_bytes: int = 0, reliable: bool = True) -> None:
        """Send the same payload to every destination (skipping ``src``)."""
        admit = self._admit
        admitted = [dst for dst in dsts if dst != src
                    and admit(src, dst, payload, size_bytes, reliable)]
        if admitted:
            self._schedule_arrival(src, admitted, payload, size_bytes,
                                   reliable)

    def _admit(self, src: str, dst: str, payload: object, size_bytes: int,
               reliable: bool) -> bool:
        """The send-side gate: whether one datagram is to be scheduled.

        Counted as sent, then consumed by the first gate that applies --
        unknown destination, active fault (crash drop, partition queue or
        drop), loss draw (unreliable only, after the partition check so a
        partitioned datagram never shifts the loss stream) -- or admitted.
        """
        strict = self.MEMBERSHIP_AT_SEND
        if strict and src not in self._handlers:
            raise NodeNotRegistered(src)
        stats = self.stats
        stats.datagrams_sent += 1
        stats.bytes_sent += size_bytes
        if _obs.ACTIVE is not None:
            # send() may run on any thread on the wall-clock substrates;
            # the recorder's list append is atomic, so concurrent
            # emissions interleave but never corrupt.
            _obs.ACTIVE.event(
                self._obs_now(), "net.send", node=src,
                dst=dst, size=size_bytes, reliable=reliable,
            )
        if strict and dst not in self._handlers:
            self._drop("unregistered", src, dst)
            return False
        if self._faults_active and self._fault_blocked(
            src, dst, payload, size_bytes, reliable
        ):
            return False
        return reliable or not self._lose_unreliable(src, dst)

    def _schedule_arrival(
        self, src: str, dsts: Sequence[str], payload: object,
        size_bytes: int, reliable: bool,
    ) -> None:
        """Schedule one :meth:`_arrive` per distinct arrival time.

        Times are scheduled in first-appearance order, recipients in
        ``dsts`` order: no other event can take a ``seq`` between them,
        so they fire exactly as one event per recipient would.
        """
        now = self.sim.now
        delay = self._fixed_delay
        fifo = self._fifo_clock
        batch = batches = None  # batches: arrival -> batch, from a 2nd time
        for dst in dsts:
            arrival = now + (delay if delay is not None
                             else self._latency.delay(src, dst, size_bytes))
            if reliable:
                # FIFO clamp: a reliable stream never reorders within a
                # (src, dst) pair, exactly like a TCP connection.
                key = (src, dst)
                if key in fifo and arrival < fifo[key]:
                    arrival = fifo[key]
                fifo[key] = arrival
            if batch is None:
                at, batch = arrival, [dst]
            elif arrival == at:
                batch.append(dst)
            else:
                batches = batches or {at: batch}
                at, batch = arrival, batches.setdefault(arrival, [])
                batch.append(dst)
        for at, batch in batches.items() if batches else ((at, batch),):
            self.sim.schedule_at(at, self._arrive, src, batch, payload,
                                 size_bytes)

    def _arrive(self, src: str, dsts: Sequence[str], payload: object,
                size_bytes: int) -> None:
        """Datagrams land in ``dsts`` order, each checked and handed over
        on its own (an earlier handler may crash a later recipient)."""
        for dst in dsts:
            if self._faults_active and self._crashed_at_arrival(src, dst):
                continue
            handler = self._handlers.get(dst)
            if handler is None:
                self._drop("unregistered", src, dst)
                continue
            stats = self.stats
            stats.datagrams_delivered += 1
            stats.bytes_delivered += size_bytes
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.event(
                    self._obs_now(), "net.deliver", node=dst,
                    src=src, size=size_bytes,
                )
            handler(src, payload, size_bytes)

    # -- introspection ---------------------------------------------------------------

    @property
    def nodes(self) -> Set[str]:
        """The currently registered node names."""
        return set(self._handlers)
