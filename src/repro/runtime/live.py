"""Wall-clock runtime: the simulator interface over real threads.

One dispatcher thread owns all protocol state, exactly like the simulator
owns it in virtual time, so protocol code needs no locks.  Public entry
points (:meth:`LiveLoop.schedule`, :meth:`LiveNetwork.send`, client stub
calls via :meth:`LiveLoop.submit`) enqueue work onto the dispatcher.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, Optional

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.rng import SeededRng


class _LiveEvent:
    """A scheduled callback in wall-clock time."""

    __slots__ = ("when", "seq", "fn", "args", "cancelled", "daemon")

    def __init__(self, when: float, seq: int, fn, args, daemon: bool) -> None:
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon

    def __lt__(self, other: "_LiveEvent") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True


class LiveLoop:
    """Wall-clock event loop compatible with the Simulator interface.

    Only the subset the protocol stack uses is provided: ``now``,
    ``schedule`` and an ``rng``.  Start with :meth:`start`, stop with
    :meth:`stop`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = SeededRng(seed)
        self._queue: list = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._epoch = time.monotonic()
        self._busy = False

    @property
    def now(self) -> float:
        """Seconds since the loop was created."""
        return time.monotonic() - self._epoch

    @property
    def idle(self) -> bool:
        """Whether only daemon (housekeeping) work remains.

        True when the dispatcher is not executing a callback and no
        non-daemon, non-cancelled event is queued.  Quiescence in wall
        clock is observational: an in-flight datagram scheduled a moment
        later flips this back to ``False``.
        """
        with self._lock:
            if self._busy:
                return False
            return not any(
                not event.daemon and not event.cancelled
                for event in self._queue
            )

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> _LiveEvent:
        """Run ``fn(*args)`` on the dispatcher ``delay`` seconds from now."""
        event = _LiveEvent(
            when=self.now + max(0.0, delay),
            seq=next(self._seq),
            fn=fn,
            args=args,
            daemon=daemon,
        )
        with self._wakeup:
            heapq.heappush(self._queue, event)
            self._wakeup.notify()
        return event

    def submit(self, fn: Callable[..., Any], *args: Any) -> _LiveEvent:
        """Run ``fn(*args)`` on the dispatcher as soon as possible."""
        return self.schedule(0.0, fn, *args)

    def start(self) -> None:
        """Start the dispatcher thread."""
        if self._running:
            return
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch, name="repro-live-loop", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the dispatcher and join its thread.

        ``timeout`` bounds the wait for an *idle* dispatcher only.  A
        dispatcher that is mid-callback is joined until the callback
        returns (the loop exits immediately afterwards, since
        ``_running`` is already false): abandoning a busy dispatcher
        would leave it mutating protocol state behind a caller that
        believes the runtime is quiescent.
        """
        with self._wakeup:
            self._running = False
            self._wakeup.notify()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        while thread.is_alive():
            with self._lock:
                busy = self._busy
            if not busy:
                thread.join(timeout=timeout)
                break
            thread.join(timeout=0.05)
        self._thread = None

    def _dispatch(self) -> None:
        while True:
            with self._wakeup:
                if not self._running:
                    return
                if not self._queue:
                    self._wakeup.wait(timeout=0.1)
                    continue
                head = self._queue[0]
                delay = head.when - self.now
                if delay > 0:
                    self._wakeup.wait(timeout=min(delay, 0.1))
                    continue
                event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                self._busy = True
            try:
                event.fn(*event.args)
            except Exception:  # pragma: no cover - live-mode resilience
                # A protocol callback must not kill the dispatcher; in the
                # simulator the same error would surface in the test.
                import traceback

                traceback.print_exc()
            finally:
                with self._lock:
                    self._busy = False


class LiveNetwork(Network):
    """The :class:`~repro.net.network.Network` datagram path in wall-clock time.

    ``send``, ``multicast``, the fault gate and ``_arrive`` are inherited
    unchanged; this substrate supplies a locked handler table (``send``
    may run on any thread), no membership check at send time, and
    arrivals scheduled on the loop's dispatcher thread after the
    configured latency -- which preserves the single-threaded protocol
    model.  Fault mutations must run on the dispatcher thread (route
    through ``Backend.call`` or a
    :class:`~repro.faults.injector.FaultInjector`).
    """

    MEMBERSHIP_AT_SEND = False

    def __init__(self, loop: LiveLoop, latency: float = 0.0) -> None:
        super().__init__(loop, latency=ConstantLatency(latency))
        self.loop = loop
        self._lock = threading.Lock()

    def register(self, node: str, handler: Callable) -> None:
        """Attach a node's receive handler."""
        with self._lock:
            self._handlers[node] = handler

    def unregister(self, node: str) -> None:
        """Detach a node."""
        with self._lock:
            self._handlers.pop(node, None)

    def is_registered(self, node: str) -> bool:
        """Whether a node currently has a receive handler."""
        with self._lock:
            return node in self._handlers

    @property
    def nodes(self) -> set:
        """The currently registered node names."""
        with self._lock:
            return set(self._handlers)

    def _handler_for(self, dst: str) -> Optional[Callable]:
        """The registered handler, read under the membership lock."""
        with self._lock:
            return self._handlers.get(dst)

    def _schedule_arrival(self, src: str, dst: str, payload: object,
                          size_bytes: int, reliable: bool) -> None:
        """Arrive on the dispatcher; loop seq order keeps pairs FIFO."""
        self.loop.schedule(self._latency.delay(src, dst, size_bytes),
                           self._arrive, src, dst, payload, size_bytes)
