"""Wall-clock runtime: the simulator interface over one real thread.

One dispatcher thread owns all protocol state, exactly like the simulator
owns it in virtual time, so protocol code needs no locks.  Public entry
points (:meth:`LiveLoop.schedule`, :meth:`LiveNetwork.send`, client stub
calls via :meth:`LiveLoop.submit`) enqueue work onto the dispatcher.

The dispatcher is also the process's one I/O thread: it sleeps in a
selector over the sockets given to :meth:`LiveLoop.add_reader` plus a
wake ``socketpair``, with the next timer as timeout, and polls the
readers once per batch of at most :data:`BATCH` due events, so neither
a timer storm nor a chatty socket can starve the other.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import threading
import time
import traceback
from typing import Any, Callable, Optional, Sequence

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.rng import SeededRng

#: Most due events run between two polls of the reader set.
BATCH = 64


class _LiveEvent:
    """A scheduled callback in wall-clock time."""

    __slots__ = ("fn", "args", "cancelled", "daemon")

    def __init__(self, fn, args, daemon: bool) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True


class LiveLoop:
    """Wall-clock event loop compatible with the Simulator interface.

    Only the subset the protocol stack uses is provided: ``now``,
    ``schedule`` and an ``rng`` -- plus :meth:`add_reader`.  Start with
    :meth:`start`, stop with :meth:`stop`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = SeededRng(seed)
        self._queue: list = []  # heap of (when, unique seq, event)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._epoch = time.monotonic()
        #: The dispatcher is in ``select`` or about to be: it runs nothing,
        #: and whoever clears the flag owes it a byte on the wake socket.
        self._asleep = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_recv = self._wake_send = None  # a socketpair, once started

    @property
    def now(self) -> float:
        """Seconds since the loop was created."""
        return time.monotonic() - self._epoch

    @property
    def idle(self) -> bool:
        """Whether only daemon (housekeeping) work remains.

        True when the dispatcher is not executing a callback (event or
        reader) and no non-daemon, non-cancelled event is queued.
        Quiescence in wall clock is observational: an in-flight datagram
        scheduled a moment later flips this back to ``False``.
        """
        with self._lock:
            if self._thread is not None and not self._asleep:
                return False
            return not any(
                not event.daemon and not event.cancelled
                for _, _, event in self._queue
            )

    @property
    def on_dispatcher(self) -> bool:
        """Whether the caller is running on the dispatcher thread."""
        return threading.current_thread() is self._thread

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> _LiveEvent:
        """Run ``fn(*args)`` on the dispatcher ``delay`` seconds from now."""
        event = _LiveEvent(fn, args, daemon)
        when = time.monotonic() - self._epoch + (delay if delay > 0 else 0.0)
        with self._lock:
            heapq.heappush(self._queue, (when, next(self._seq), event))
            self._wake()
        return event

    def submit(self, fn: Callable[..., Any], *args: Any) -> _LiveEvent:
        """Run ``fn(*args)`` on the dispatcher as soon as possible."""
        return self.schedule(0.0, fn, *args)

    def add_reader(self, sock: socket.socket, callback: Callable[..., Any],
                   *args: Any) -> None:
        """Run ``callback(*args)`` on the dispatcher whenever ``sock`` is
        readable (level-triggered).  Any thread; a loop that is not
        running never calls back."""
        with self._lock:
            if self._selector is not None:
                self._selector.register(sock, selectors.EVENT_READ,
                                        (callback, args))
                self._wake()

    def remove_reader(self, sock: socket.socket) -> None:
        """Forget ``sock`` (any thread; before closing it; idempotent)."""
        with self._lock:
            try:
                if self._selector is not None:
                    self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass  # never added, or removed already

    def _wake(self) -> None:
        """Lock held: end the dispatcher's sleep, if it is in one -- once
        per sleep, and never from the dispatcher itself."""
        if self._asleep:
            self._asleep = False
            self._wake_send.send(b"\0")

    def start(self) -> None:
        """Start the dispatcher thread."""
        if self._running:
            return
        self._running = self._asleep = True
        self._selector = selectors.DefaultSelector()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._selector.register(self._wake_recv, selectors.EVENT_READ)
        self._thread = threading.Thread(
            target=self._dispatch, name="repro-live-loop", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the dispatcher, join its thread, release its sockets.

        A sleeping dispatcher is woken and gone at once.  One that is
        mid-callback is joined until the callback returns (the loop
        exits immediately afterwards, since ``_running`` is already
        false): abandoning a busy dispatcher would leave it mutating
        protocol state behind a caller that believes the runtime is
        quiescent.  Then every reader is unregistered and the wake
        ``socketpair`` closed.
        """
        with self._lock:
            self._running = False
            self._wake()
        thread = self._thread
        if thread is None:
            return
        thread.join()
        self._thread = None
        with self._lock:
            self._selector.close()
            self._selector = None
        self._wake_recv.close()
        self._wake_send.close()

    def _dispatch(self) -> None:
        queue, lock = self._queue, self._lock
        select, clock, epoch = self._selector.select, time.monotonic, self._epoch
        while True:
            with lock:
                if not self._running:
                    return
                timeout = (max(0.0, queue[0][0] - (clock() - epoch))
                           if queue else None)
                self._asleep = timeout != 0
            ready = select(timeout)
            with lock:
                self._asleep = False
            for key, _ in ready:
                if key.data is None:
                    self._wake_recv.recv(4096)
                else:
                    self._run(*key.data)
            for _ in range(BATCH):
                with lock:
                    if not queue or queue[0][0] > clock() - epoch:
                        break
                    event = heapq.heappop(queue)[2]
                if not event.cancelled:
                    self._run(event.fn, event.args)

    @staticmethod
    def _run(fn: Callable[..., Any], args: tuple) -> None:
        try:
            fn(*args)
        except Exception:  # pragma: no cover - live-mode resilience
            # A protocol callback must not kill the dispatcher; in the
            # simulator the same error would surface in the test.
            traceback.print_exc()


class LiveNetwork(Network):
    """The :class:`~repro.net.network.Network` datagram path in wall-clock time.

    ``send``, ``multicast``, the fault gate and ``_arrive`` are inherited
    unchanged; this substrate supplies a lock around membership changes
    (``register`` may run on any thread; an arrival's single ``dict.get``
    on the handler table needs none), no membership check at send time,
    and arrivals scheduled on the loop's dispatcher thread after the
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

    @property
    def nodes(self) -> set:
        """The currently registered node names."""
        with self._lock:
            return set(self._handlers)

    def _schedule_arrival(self, src: str, dsts: Sequence[str],
                          payload: object, size_bytes: int,
                          reliable: bool) -> None:
        """One loop callback per recipient; seq order keeps pairs FIFO."""
        for dst in dsts:
            self.loop.schedule(self._latency.delay(src, dst, size_bytes),
                               self._arrive, src, (dst,), payload,
                               size_bytes)
