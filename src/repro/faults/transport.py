"""The fault control surface and fault state of the datagram network.

:class:`FaultableTransportMixin` is the partition / queue / heal / crash
machinery behind :class:`~repro.net.network.Network` -- and, by
inheritance, behind the wall-clock substrates -- so every backend has
the *identical* semantics:

- a **partition** separates two node sets; reliable datagrams between
  separated nodes queue (TCP keeps retransmitting) and flush on heal,
  unreliable ones are dropped and counted;
- a **heal** removes one named partition (flushing only pairs no longer
  separated by any remaining cut) or all of them, always flushing in
  original send order so recovery is deterministic;
- a **crashed** node is down, not slow: datagrams to or from it --
  including entries already queued behind a partition -- are dropped and
  counted, and a restart simply stops the dropping (the node catches up
  through the protocol's own demand/state-transfer path);
- a **loss rate** applies to unreliable datagrams only, sampled from the
  seeded RNG the concrete transport hands to :meth:`_init_faults`.

The one datagram path (:class:`~repro.net.network.Network`, which the
wall-clock substrates specialise) calls :meth:`_fault_blocked` from its
send-side gate while ``_faults_active`` is up, :meth:`_lose_unreliable`
for the loss draw and :meth:`_crashed_at_arrival` when a datagram lands; it
provides ``stats`` (a :class:`~repro.net.network.NetworkStats`),
``_obs_now()`` (its clock reading, for trace timestamps) and
``_schedule_arrival(src, dsts, payload, size_bytes, reliable)``, which a
heal uses to release queued datagrams, one recipient at a time.

Fault state is normally mutated on the protocol thread (the simulator's
event loop or the live dispatcher): the
:class:`~repro.faults.injector.FaultInjector` schedules every mutation
through the :class:`~repro.transport.interface.Clock`, and harness code
routes manual mutations through ``Backend.call``.  The live transport's
``send`` may nevertheless run on any thread, so the partition queue and
fault sets are guarded by a reentrant lock -- a queued reliable datagram
can never be lost to a send racing a concurrent heal's flush.  ``send``
reads ``_faults_active`` *outside* that lock; that is safe because every
mutator raises the flag before it touches fault state and lowers it only
after (a heal: after its flush), so a send that could be affected by a
mutation in progress always sees the flag up and waits at the gate.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.obs import tracer as _obs
from repro.sim.rng import SeededRng

#: One queued reliable datagram: (src, dst, payload, size_bytes).
QueuedDatagram = Tuple[str, str, object, int]


class FaultableTransportMixin:
    """Partition / queue / heal / crash machinery for a datagram transport.

    See the module docstring for the contract with concrete classes.
    """

    def _init_faults(
        self, loss_rng: SeededRng, loss_rate: float = 0.0
    ) -> None:
        """Initialize fault state; call once from the concrete ``__init__``."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._partitions: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
        self._partition_queue: List[QueuedDatagram] = []
        self._crashed: set = set()
        self._fault_lock = threading.RLock()
        # True whenever a partition or a crash is in effect: ``send``
        # and ``_arrive`` enter the gate only while it is up, so a
        # healthy network pays one attribute read per datagram.  At rest
        # it equals ``bool(self._partitions or self._crashed)``; every
        # mutator below raises it *before* mutating and lowers it last
        # (see the module docstring for why the order matters).
        self._faults_active = False

    # -- partitions -----------------------------------------------------------

    def partition(self, side_a: Sequence[str], side_b: Sequence[str]) -> None:
        """Cut connectivity between two node sets until :meth:`heal`."""
        with self._fault_lock:
            self._faults_active = True
            self._partitions.append((frozenset(side_a), frozenset(side_b)))

    def heal(
        self,
        side_a: Optional[Sequence[str]] = None,
        side_b: Optional[Sequence[str]] = None,
    ) -> None:
        """Remove partitions and flush reliable traffic no longer blocked.

        With no arguments every partition is removed (the historical
        all-or-nothing heal).  With both sides given, exactly the one
        matching partition is removed -- orientation-insensitive -- and
        only queued pairs that no remaining partition separates are
        flushed, in their original send order.  Entries to or from
        crashed nodes stay blocked either way.
        """
        if (side_a is None) != (side_b is None):
            raise ValueError(
                "heal() takes both sides (partial) or neither (full)"
            )
        with self._fault_lock:
            if side_a is None:
                self._partitions.clear()
            else:
                cut = (frozenset(side_a), frozenset(side_b))
                flipped = (cut[1], cut[0])
                if cut in self._partitions:
                    self._partitions.remove(cut)
                elif flipped in self._partitions:
                    self._partitions.remove(flipped)
                else:
                    raise ValueError(
                        f"no partition {sorted(cut[0])} | {sorted(cut[1])} "
                        "to heal"
                    )
            self._flush_partition_queue()
            self._faults_active = bool(self._partitions or self._crashed)

    def partitioned(self, src: str, dst: str) -> bool:
        """Whether a partition currently separates ``src`` and ``dst``."""
        for side_a, side_b in self._partitions:
            if (src in side_a and dst in side_b) or (
                src in side_b and dst in side_a
            ):
                return True
        return False

    # -- loss ------------------------------------------------------------------

    def set_loss_rate(self, rate: float) -> None:
        """Set the unreliable-datagram loss rate (used by loss bursts)."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {rate!r}")
        self.loss_rate = rate

    def _lose_unreliable(self, src: str, dst: str) -> bool:
        """Sample whether this unreliable datagram is lost (and drop it)."""
        if self.loss_rate > 0 and self._loss_rng.bernoulli(self.loss_rate):
            self._drop("loss", src, dst)
            return True
        return False

    # -- crash / restart --------------------------------------------------------

    def crash_node(self, node: str) -> None:
        """Take ``node`` down; queued entries involving it are dropped."""
        with self._fault_lock:
            self._faults_active = True
            self._crashed.add(node)
            kept: List[QueuedDatagram] = []
            for entry in self._partition_queue:
                if entry[0] == node or entry[1] == node:
                    self.stats.datagrams_dropped_crashed += 1
                else:
                    kept.append(entry)
            self._partition_queue = kept

    def restart_node(self, node: str) -> None:
        """Bring ``node`` back up (idempotent)."""
        with self._fault_lock:
            self._crashed.discard(node)
            self._faults_active = bool(self._partitions or self._crashed)

    def is_crashed(self, node: str) -> bool:
        """Whether ``node`` is currently crashed."""
        return node in self._crashed

    # -- the datagram-path gates ------------------------------------------------

    def _drop(self, reason: str, src: str, dst: str) -> None:
        """Count one datagram dropped for ``reason`` and trace the drop."""
        counter = "datagrams_dropped_" + reason
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.event(
                self._obs_now(), "net.drop", node=dst, src=src, reason=reason,
            )

    def _fault_blocked(
        self, src: str, dst: str, payload: object, size_bytes: int,
        reliable: bool,
    ) -> bool:
        """Whether an active fault consumed this datagram.

        Crashes drop (either endpoint down); partitions queue reliable
        datagrams and drop unreliable ones.  Loss is *not* sampled here
        -- ``send`` draws it after this gate, so a partitioned datagram
        never consumes a loss draw (which would shift every later draw
        and break seed stability).
        """
        with self._fault_lock:
            if src in self._crashed or dst in self._crashed:
                self._drop("crashed", src, dst)
                return True
            if self.partitioned(src, dst):
                if reliable:
                    self._partition_queue.append(
                        (src, dst, payload, size_bytes)
                    )
                    if _obs.ACTIVE is not None:
                        _obs.ACTIVE.event(
                            self._obs_now(), "net.queue", node=dst,
                            src=src, reason="partition",
                        )
                else:
                    self._drop("partition", src, dst)
                return True
        return False

    def _flush_partition_queue(self) -> None:
        """Deliver queued entries no longer blocked, in send order."""
        with self._fault_lock:
            still_blocked: List[QueuedDatagram] = []
            queued, self._partition_queue = self._partition_queue, []
            for src, dst, payload, size_bytes in queued:
                if (
                    self.partitioned(src, dst)
                    or src in self._crashed
                    or dst in self._crashed
                ):
                    still_blocked.append((src, dst, payload, size_bytes))
                else:
                    self._schedule_arrival(src, (dst,), payload,
                                           size_bytes, True)
            # Prepend: delivery above may have queued nothing, but a
            # re-partition during flush must not reorder survivors.
            self._partition_queue = still_blocked + self._partition_queue

    def _crashed_at_arrival(self, src: str, dst: str) -> bool:
        """Drop (and count) a datagram in flight when its target died."""
        if dst in self._crashed:
            self._drop("crashed", src, dst)
            return True
        return False
