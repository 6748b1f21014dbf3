"""Runtime backends: one clock + one transport + a driving discipline.

A :class:`Backend` bundles a concrete :class:`~repro.transport.interface.
Clock` / :class:`~repro.transport.interface.Transport` pair with the small
set of operations harness code needs to *drive* a deployment from outside
the protocol thread: submit a call onto the protocol thread, block until a
future resolves, let protocol time elapse, and run to quiescence.

Three backends ship:

- :class:`SimBackend` -- the deterministic discrete-event pair
  (``Simulator`` + ``Network``); driving means stepping the event loop.
- :class:`LiveBackend` -- the wall-clock pair (``LiveLoop`` +
  ``LiveNetwork``); driving means enqueueing onto the dispatcher thread
  and polling real time.
- :class:`SocketBackend` -- the multi-process pair (``LiveLoop`` +
  ``SocketNetwork``): every store runs in its own OS process connected
  over framed sockets, while clients and the fault surface stay in the
  hub process.  Driving is identical to ``LiveBackend``; fault plans
  gain real teeth (CrashNode SIGKILLs a process).

Harness code written against this interface (the parity tests, the live
sweep adapter, :func:`repro.workload.scenarios.build_tree`) runs unchanged
on every substrate.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Union

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.network import Network
from repro.sim.future import Future
from repro.sim.kernel import Simulator


class BackendError(RuntimeError):
    """Raised when a backend cannot drive the requested operation."""


class Backend:
    """Abstract driving interface over one clock/transport pair."""

    #: Registry name ("sim" / "live" / "live-socket"); also what
    #: ``make_backend`` accepts.
    name: str = "abstract"

    clock: Any
    transport: Any

    def start(self) -> None:
        """Begin executing protocol events (no-op for virtual time)."""

    def stop(self) -> None:
        """Stop executing protocol events and release resources."""

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the protocol thread; return its value."""
        raise NotImplementedError

    def wait(self, future: Future, timeout: Optional[float] = None) -> Any:
        """Drive the backend until ``future`` resolves; return its result."""
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Let ``seconds`` of protocol time elapse."""
        raise NotImplementedError

    def settle(self, timeout: float = 5.0, grace: float = 0.05) -> None:
        """Drive until the protocol is quiescent (only daemon work left).

        ``grace`` is wall-clock slack for the live backend, where
        quiescence can only be observed, never proven.
        """
        raise NotImplementedError

    def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 5.0,
    ) -> bool:
        """Drive until ``predicate()`` holds; ``False`` on timeout."""
        raise NotImplementedError


class SimBackend(Backend):
    """Virtual-time backend: deterministic, drives by stepping events."""

    name = "sim"

    def __init__(
        self,
        seed: int = 0,
        latency: Union[LatencyModel, float, None] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if isinstance(latency, (int, float)):
            latency = ConstantLatency(float(latency))
        self.clock = Simulator(seed=seed)
        self.transport = Network(self.clock, latency=latency,
                                 loss_rate=loss_rate)

    @property
    def sim(self) -> Simulator:
        """The underlying simulator (experiments drive it directly)."""
        return self.clock

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run directly: the caller's thread is the protocol thread."""
        return fn(*args)

    def wait(self, future: Future, timeout: Optional[float] = None) -> Any:
        """Step events until the future resolves (virtual-time deadline)."""
        deadline = None if timeout is None else self.clock.now + timeout
        while not future.done:
            if deadline is not None and self.clock.now >= deadline:
                raise BackendError(
                    f"future unresolved after {timeout}s of virtual time"
                )
            if not self.clock.step():
                raise BackendError(
                    "event queue drained with the future unresolved"
                )
        return future.result()

    def advance(self, seconds: float) -> None:
        """Run the event loop for ``seconds`` of virtual time."""
        self.clock.run(until=self.clock.now + seconds)

    def settle(self, timeout: float = 5.0, grace: float = 0.05) -> None:
        """Drain the event queue to (non-daemon) quiescence."""
        self.clock.run_until_idle()

    def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 5.0
    ) -> bool:
        """Step events until ``predicate()`` holds or virtual time runs out."""
        deadline = self.clock.now + timeout
        while not predicate():
            if self.clock.now >= deadline or not self.clock.step():
                return predicate()
        return True


class LiveBackend(Backend):
    """Wall-clock backend: drives by enqueueing and polling real time."""

    name = "live"

    #: Poll period for wall-clock waits (seconds).
    POLL = 0.002

    def __init__(
        self,
        seed: int = 0,
        latency: Union[float, None] = None,
        loss_rate: float = 0.0,
        call_timeout: float = 10.0,
    ) -> None:
        # Import here: repro.runtime imports this module's siblings.
        from repro.runtime.live import LiveLoop, LiveNetwork

        if loss_rate:
            raise BackendError(
                "the live transport is in-process and lossless; "
                "loss injection is a simulator feature"
            )
        if latency is not None and not isinstance(latency, (int, float)):
            raise BackendError(
                f"live latency must be a constant delay in seconds, "
                f"got {latency!r}"
            )
        self.clock = LiveLoop(seed=seed)
        self.transport = LiveNetwork(
            self.clock, latency=0.001 if latency is None else float(latency)
        )
        self.call_timeout = call_timeout

    def start(self) -> None:
        """Start the dispatcher thread."""
        self.clock.start()

    def stop(self) -> None:
        """Stop the dispatcher thread."""
        self.clock.stop()

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the dispatcher; block for its result."""
        done = threading.Lock()  # a one-shot latch: released when run
        done.acquire()
        box: dict = {}

        def run() -> None:
            """Dispatcher-side shim relaying the result or error."""
            try:
                box["value"] = fn(*args)
            except BaseException as exc:  # relayed to the caller below
                box["error"] = exc
            finally:
                done.release()

        self.clock.submit(run)
        if not done.acquire(timeout=self.call_timeout):
            raise BackendError(
                f"dispatcher did not run the call within {self.call_timeout}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def wait(self, future: Future, timeout: Optional[float] = None) -> Any:
        """Poll wall-clock time until the future resolves."""
        limit = self.call_timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        while not future.done:
            if time.monotonic() >= deadline:
                raise BackendError(f"future unresolved after {limit}s")
            time.sleep(self.POLL)
        return future.result()

    def advance(self, seconds: float) -> None:
        """Sleep: live protocol time only passes on the wall clock."""
        time.sleep(max(0.0, seconds))

    def settle(self, timeout: float = 5.0, grace: float = 0.05) -> None:
        """Poll until the loop looks idle, then absorb in-flight work."""
        deadline = time.monotonic() + timeout
        while not self.clock.idle:
            if time.monotonic() >= deadline:
                return
            time.sleep(self.POLL)
        # Quiescence observed; absorb deliveries already in flight.
        time.sleep(grace)

    def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 5.0
    ) -> bool:
        """Poll wall-clock time until ``predicate()`` holds."""
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() >= deadline:
                return predicate()
            time.sleep(self.POLL)
        return True


class SocketBackend(LiveBackend):
    """Multi-process backend: stores in child processes, clients in-hub.

    The clock is a hub-local :class:`~repro.runtime.live.LiveLoop`; the
    transport is a :class:`~repro.runtime.socket.SocketNetwork` that
    forwards store-bound datagrams over per-node frame sockets.  Store
    construction goes through :meth:`store_factory` (consumed by
    :class:`~repro.core.dso.DistributedSharedObject`), which records one
    ``repro.runtime.node`` process per store and returns an RPC proxy;
    :meth:`start` spawns all the recorded processes at once.

    The shared trace recorder lives on :attr:`trace`; node processes
    stream their events back into it, so ``coherence_signature`` works
    exactly as on the in-process backends.
    """

    name = "live-socket"

    def __init__(
        self,
        seed: int = 0,
        latency: Union[float, None] = None,
        loss_rate: float = 0.0,
        call_timeout: float = 10.0,
        run_dir: Optional[str] = None,
    ) -> None:
        # Imports deferred: repro.runtime/repro.coherence import this
        # module's package.
        from repro.coherence.trace import TraceRecorder
        from repro.runtime.live import LiveLoop
        from repro.runtime.socket import SocketHub, SocketNetwork

        if loss_rate:
            raise BackendError(
                "the socket transport is lossless (TCP/Unix streams); "
                "loss injection is a simulator feature"
            )
        if latency is not None and not isinstance(latency, (int, float)):
            raise BackendError(
                f"live-socket latency must be a constant delay in seconds, "
                f"got {latency!r}"
            )
        self.seed = seed
        self.clock = LiveLoop(seed=seed)
        self.trace = TraceRecorder()
        self.hub = SocketHub(
            self.clock, run_dir=run_dir, call_timeout=call_timeout,
            trace=self.trace,
        )
        self.transport = SocketNetwork(
            self.clock,
            self.hub,
            latency=0.001 if latency is None else float(latency),
        )
        self.hub.network = self.transport
        self.call_timeout = call_timeout
        # The dispatcher is the thread that reads node replies, so it
        # runs from construction: a tree with mirrors calls nodes while
        # it is built.
        self.clock.start()
        self.hub.start()

    def start(self) -> None:
        """Boot every store recorded so far, all at once (the dispatcher
        already runs); blocks until each node has registered."""
        super().start()
        self.hub.boot()

    def store_factory(self, dso: Any, address: str, role: Any,
                      parent: Optional[str]) -> Any:
        """Record the store as a node process; return its Store proxy.

        The process is spawned by :meth:`start`, or by the first RPC or
        datagram that needs it.  The first permanent store is the primary
        and ships the prototype's full page snapshot in its spec; every
        other store starts from an empty document, exactly like
        ``SemanticsObject.fresh()`` in-process.
        """
        from repro.core.dso import Store
        from repro.core.interfaces import Role
        from repro.runtime.socket import RemoteEngineProxy, RemoteStoreLocal

        primary = role is Role.PERMANENT and dso.primary is None
        spec = {
            "address": address,
            "role": role.value,
            "parent": parent,
            "policy": dso.policy,
            "allowed_writer": dso.designated_writer,
            "reliable_transport": dso.reliable_transport,
            "seed": self.seed,
            "semantics_state": (
                dso.semantics_prototype.snapshot() if primary else None
            ),
        }
        self.hub.spawn_node(address, spec)
        self.transport.register_remote(address)
        return Store(
            local=RemoteStoreLocal(address, role),
            engine=RemoteEngineProxy(self.hub, address, parent=parent),
        )

    def settle(self, timeout: float = 5.0, grace: float = 0.05) -> None:
        """Observe hub quiescence, with extra slack for socket hops.

        The hub loop's ``idle`` cannot see work queued inside node
        processes, so the grace window absorbs in-flight frames too.
        """
        super().settle(timeout=timeout, grace=max(grace, 0.2))

    def stop(self) -> None:
        """Stop the dispatcher, then every node process and socket."""
        self.clock.stop()
        self.hub.shutdown()


#: Buildable backends by name.
BACKENDS = {
    SimBackend.name: SimBackend,
    LiveBackend.name: LiveBackend,
    SocketBackend.name: SocketBackend,
}


def make_backend(backend: Union[str, Backend], **kwargs: Any) -> Backend:
    """Build (or pass through) a backend.

    ``backend`` is a registry name (``"sim"`` / ``"live"`` /
    ``"live-socket"``) or an already constructed :class:`Backend`, which
    is returned as-is (keyword arguments must then be absent).
    """
    if isinstance(backend, Backend):
        if kwargs:
            raise BackendError(
                f"cannot reconfigure an existing backend with {sorted(kwargs)}"
            )
        return backend
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise BackendError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)
