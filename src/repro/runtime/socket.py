"""Hub side of the socket runtime: routing, registry, fault teeth.

The ``live-socket`` backend keeps the *driving* half of a deployment --
the dispatcher loop, every client address space, the shared trace
recorder and the fault-control surface -- in the parent process (the
"hub"), while every store runs in its own OS process
(:mod:`repro.runtime.node`).  One frame socket connects each node back
here.

Design rule: **every datagram crosses the hub's network send path
exactly once.**  Client traffic originates on the hub dispatcher and
enters :meth:`SocketNetwork.send` directly; node-originated traffic
arrives as ``data`` frames, which the dispatcher -- the one thread that
reads and writes every node socket -- hands to the same method as it
reads them.  Latency, partitions, crash gating and every
``NetworkStats`` counter therefore behave identically to the
in-process backends -- which is what makes the cross-backend coherence
signatures comparable at all.

Fault teeth: :meth:`SocketNetwork.crash_node` first applies the shared
:class:`~repro.faults.transport.FaultableTransportMixin` semantics
(queued/in-flight drops, counters), then SIGKILLs the node's real
process; :meth:`SocketNetwork.restart_node` re-spawns it with
``--restore`` so the replica resumes from its snapshot + journal, then
lifts the crash mark.  Liveness is tracked by a heartbeat
:class:`~repro.runtime.registry.Registry`.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import socket
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.coherence.trace import TraceRecorder
from repro.core.interfaces import Role
from repro.runtime.live import LiveLoop, LiveNetwork
from repro.runtime.registry import Registry
from repro.runtime.supervisor import NodeSupervisor
from repro.runtime.wire import FrameChannel, WireError, listen


class SocketRuntimeError(RuntimeError):
    """A node could not be spawned, reached, or called."""


class SocketHub:
    """Accepts node connections; routes frames, calls, and lifecycle.

    One hub per deployment.  Threads, whatever the node count: the
    deployment's :class:`LiveLoop` dispatcher, one accept thread, one
    liveness sweeper, and a short-lived handshake thread per connecting
    peer.  After ``hello`` a channel is attached to the dispatcher, which
    alone reads and writes it (see :mod:`repro.runtime.wire`).
    """

    def __init__(
        self,
        run_dir: Optional[str] = None,
        call_timeout: float = 10.0,
        heartbeat_ttl: float = 2.0,
        heartbeat_interval: float = 0.25,
        node_boot_timeout: float = 10.0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.run_dir = run_dir or tempfile.mkdtemp(prefix="repro-hub-")
        self._owns_run_dir = run_dir is None
        self.address = os.path.join(self.run_dir, "hub.sock")
        self.call_timeout = call_timeout
        self.heartbeat_interval = heartbeat_interval
        self.node_boot_timeout = node_boot_timeout
        self.trace = trace
        self.registry = Registry(ttl=heartbeat_ttl)
        self.supervisor = NodeSupervisor(self.run_dir, self.address)
        #: The deployment's :class:`SocketNetwork`; set by the backend
        #: right after construction (the two reference each other).
        self.network: Optional[SocketNetwork] = None
        self._channels: Dict[str, FrameChannel] = {}
        #: Connections still inside their handshake, and their threads.
        self._greeting: Dict[FrameChannel, threading.Thread] = {}
        self._ready: Dict[str, threading.Event] = {}
        self._calls: Dict[int, Dict[str, Any]] = {}
        self._call_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._listener = listen(self.address)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accept_thread.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="repro-hub-sweeper", daemon=True
        )
        self._sweeper.start()

    # -- node lifecycle ------------------------------------------------------

    def spawn_node(self, name: str, spec: Dict[str, Any]) -> None:
        """Write ``spec`` and launch the node; blocks until it registers."""
        spec = dict(spec)
        spec.setdefault("checkpoint_path",
                        self.supervisor.checkpoint_path(name))
        spec.setdefault("heartbeat_interval", self.heartbeat_interval)
        self.supervisor.write_spec(name, spec)
        self._launch(name, restore=False)

    def _launch(self, name: str, restore: bool) -> None:
        with self._lock:
            event = self._ready.setdefault(name, threading.Event())
            event.clear()
        proc = self.supervisor.spawn(name, restore=restore)
        deadline = time.monotonic() + self.node_boot_timeout
        log = self.supervisor.log_path(name)
        # Short waits so a child that died on start-up (an unreadable
        # snapshot, a bad spec) is reported now, not at the deadline.
        while not event.wait(0.05):
            status = proc.poll()
            if status is not None:
                raise SocketRuntimeError(
                    f"node {name!r} exited with status {status} before "
                    f"registering (see {log})"
                )
            if time.monotonic() >= deadline:
                raise SocketRuntimeError(
                    f"node {name!r} did not register within "
                    f"{self.node_boot_timeout}s (see {log})"
                )

    def kill_node(self, name: str) -> int:
        """SIGKILL the node's process; returns the dead PID."""
        with self._lock:
            channel = self._channels.pop(name, None)
        pid = self.supervisor.kill(name)
        self.registry.deregister(name)
        if channel is not None:
            channel.close()
        return pid

    def restart_node(self, name: str) -> None:
        """Re-spawn a killed node as the same replica; blocks until up."""
        self._launch(name, restore=True)

    def node_pid(self, name: str) -> int:
        """The node's current process id."""
        return self.supervisor.pid(name)

    def channel_for(self, name: str) -> Optional[FrameChannel]:
        """The node's frame channel, or ``None`` when detached."""
        return self._channels.get(name)

    # -- node RPC ------------------------------------------------------------

    def call(self, node: str, op: str, timeout: Optional[float] = None,
             **kwargs: Any) -> Any:
        """Run ``op(**kwargs)`` on the node's dispatcher; block for it.

        Safe from any hub thread.  Off the dispatcher the ``call`` frame
        is submitted to it and the reply awaited on a latch; *on* the
        dispatcher -- the thread that would read the reply -- the frame
        is sent and that one channel pumped inline until the reply.
        """
        channel = self._channels.get(node)
        if channel is None:
            raise SocketRuntimeError(f"node {node!r} is not connected")
        call_id = next(self._call_ids)
        latch = threading.Lock()
        latch.acquire()
        slot: Dict[str, Any] = {"latch": latch, "error": "no reply"}
        with self._lock:
            self._calls[call_id] = slot
        loop = self.network.loop
        deadline = time.monotonic() + (timeout or self.call_timeout)
        if not loop.on_dispatcher:
            loop.submit(self._send_call, channel, call_id, op, kwargs)
            latch.acquire(timeout=deadline - time.monotonic())
        else:
            self._send_call(channel, call_id, op, kwargs)
            while (call_id in self._calls
                   and self._channels.get(node) is channel
                   and channel.poll(deadline - time.monotonic())):
                channel.pump()
        with self._lock:
            self._calls.pop(call_id, None)
        if slot["error"] is not None:
            raise SocketRuntimeError(f"{node}.{op} failed: {slot['error']}")
        return slot["result"]

    def _send_call(self, channel: FrameChannel, call_id: int, op: str,
                   kwargs: Dict[str, Any]) -> None:
        try:
            self._send(channel, "call", call_id=call_id, op=op, kwargs=kwargs)
        except WireError as exc:
            self._resolve_call({"call_id": call_id, "error": str(exc)})

    # -- frame plumbing (attached channels: dispatcher only) -----------------

    def _send(self, channel: FrameChannel, kind: str, **body: Any) -> None:
        if self.network is not None:
            self.network.stats.frames_sent += 1
        channel.send(kind, **body)

    def forward(self, dst: str, src: str, payload: object,
                size_bytes: int) -> bool:
        """Frame one routed datagram out to node ``dst`` (dispatcher)."""
        channel = self._channels.get(dst)
        if channel is None:
            return False
        try:
            self._send(channel, "data", src=src, dst=dst, payload=payload,
                       size=size_bytes, reliable=True)
        except WireError:
            return False
        return True

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            channel = FrameChannel(sock)
            thread = threading.Thread(target=self._greet, args=(channel,),
                                      name="repro-hub-hello", daemon=True)
            with self._lock:
                self._greeting[channel] = thread
            thread.start()

    def _greet(self, channel: FrameChannel) -> None:
        """Handshake one connection under a deadline -- off the dispatcher,
        where ``restart_node`` waits for this very ``hello``.  A peer that
        says anything else first, or nothing within ``node_boot_timeout``,
        is closed and never reaches the reader set."""
        try:
            frame = channel.recv(timeout=self.node_boot_timeout)
            if frame is None or frame[0] != "hello":
                raise WireError("no hello")
            name = channel.peer = str(frame[1]["node"])
            self.network.stats.frames_received += 1
            self.registry.register(name, int(frame[1]["pid"]), conn=channel,
                                   now=time.monotonic())
            self._send(channel, "welcome", node=name)
            channel.attach(self.network.loop, self._on_frame, self._lost,
                           stall_timeout=self.call_timeout)
        except (WireError, KeyError, TypeError, ValueError, OSError):
            name = None
        with self._lock:
            del self._greeting[channel]
            if name is not None and not self._closing.is_set():
                self._channels[name] = channel
                self._ready.setdefault(name, threading.Event()).set()
                return
        channel.close()

    def _on_frame(self, channel: FrameChannel, kind: str,
                  body: Dict[str, Any]) -> None:
        """Route one frame of an attached channel (dispatcher).

        ``data`` re-enters the one canonical send path -- stats, fault
        gates and latency are applied there and nowhere else -- which
        only *schedules* the arrival, so no handler runs re-entrantly.
        A malformed body or a second ``hello`` ends the connection.
        """
        network = self.network
        network.stats.frames_received += 1
        try:
            if kind == "data":
                network.send(body["src"], body["dst"], body["payload"],
                             body["size"], body["reliable"])
            elif kind == "trace":
                self._record_trace(body["event"])
            elif kind == "reply":
                self._resolve_call(body)
            elif kind == "heartbeat":
                self.registry.beat(channel.peer, now=time.monotonic())
            else:
                raise WireError(f"unexpected {kind!r} frame")
        except (KeyError, TypeError) as exc:
            raise WireError(f"malformed {kind!r} frame") from exc

    def _lost(self, channel: FrameChannel) -> None:
        """Forget a channel that closed itself (EOF, faulty or stalled)."""
        with self._lock:
            # A restarted node may already have replaced this channel;
            # only detach if we are still current.
            if self._channels.get(channel.peer) is channel:
                del self._channels[channel.peer]

    def _record_trace(self, event: Any) -> None:
        """Append a node's trace event to the shared recorder.

        The event is re-indexed into the hub recorder's global order;
        per-lane order (all the signature cares about) is preserved
        because each node streams its own events in recording order.
        """
        recorder = self.trace
        if recorder is None:
            return
        recorder.events.append(
            dataclasses.replace(event, index=recorder._next_index())
        )

    def _resolve_call(self, body: Dict[str, Any]) -> None:
        with self._lock:
            slot = self._calls.pop(body["call_id"], None)
        if slot is None:
            return
        slot["error"] = body.get("error")
        slot["result"] = body.get("result")
        slot["latch"].release()

    def _sweep_loop(self) -> None:
        """Expire registry entries whose heartbeats went silent."""
        while not self._closing.wait(self.heartbeat_interval):
            self.registry.expire(time.monotonic())

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every node, close every socket, remove the run dir."""
        self._closing.set()
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
            greeting = dict(self._greeting)
        for channel in channels:
            try:
                channel.send("bye")
            except WireError:
                pass
        self.supervisor.shutdown()
        for channel in [*channels, *greeting]:
            channel.close()
        try:
            # close() alone leaves a thread blocked in accept() asleep on
            # Linux; shutting the listening socket down wakes it.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in (self._accept_thread, self._sweeper,
                       *greeting.values()):
            thread.join(timeout=2.0)
        for name in self.registry.names():
            self.registry.deregister(name)
        if self._owns_run_dir:
            shutil.rmtree(self.run_dir, ignore_errors=True)


class SocketNetwork(LiveNetwork):
    """The hub's transport: local handlers plus remote (node) routing.

    Clients register locally exactly as on :class:`LiveNetwork`; store
    addresses are *remote* and delivery to them forwards a frame to the
    node's channel.  All fault machinery (partition queueing, crash
    drops, counters) is inherited and runs hub-side, so counter parity
    with the in-process backends holds by construction.
    """

    def __init__(self, loop: LiveLoop, hub: SocketHub,
                 latency: float = 0.0) -> None:
        super().__init__(loop, latency=latency)
        self.hub = hub
        self._remote: set = set()

    # -- remote membership ---------------------------------------------------

    def register_remote(self, node: str) -> None:
        """Mark an address as living in a node process."""
        with self._lock:
            self._remote.add(node)

    def unregister_remote(self, node: str) -> None:
        """Forget a remote address."""
        with self._lock:
            self._remote.discard(node)

    def is_registered(self, node: str) -> bool:
        """Whether the address is attached, locally or remotely."""
        with self._lock:
            if node in self._remote:
                return True
        return super().is_registered(node)

    @property
    def nodes(self) -> set:
        """All attached addresses, local and remote."""
        with self._lock:
            remote = set(self._remote)
        return super().nodes | remote

    # -- delivery ------------------------------------------------------------

    def _arrive(self, src: str, dst: str, payload: object,
                size_bytes: int) -> None:
        """Local destinations take the shared body; remote ones a frame.

        For a remote destination the frame write *is* the hand-over, so
        it is counted delivered only once :meth:`SocketHub.forward`
        reports the frame written; a node whose channel is gone (never
        attached, or closed under the write) drops as unregistered.
        """
        with self._lock:
            remote = dst in self._remote
        if not remote:
            super()._arrive(src, dst, payload, size_bytes)
        elif self._faults_active and self._crashed_at_arrival(src, dst):
            return
        elif self.hub.forward(dst, src, payload, size_bytes):
            self._delivered(src, dst, size_bytes)
        else:
            self._drop("unregistered", src, dst)

    # -- fault teeth ---------------------------------------------------------

    def crash_node(self, node: str) -> None:
        """Crash semantics, then SIGKILL the real process (if remote)."""
        super().crash_node(node)
        with self._lock:
            remote = node in self._remote
        if remote:
            self.hub.kill_node(node)

    def restart_node(self, node: str) -> None:
        """Re-spawn as the same replica (if remote), then lift the crash mark.

        The process is brought up *before* the crash mark clears, so any
        straggling traffic keeps dropping as crashed until the replica
        is actually back.
        """
        with self._lock:
            remote = node in self._remote
        if remote:
            self.hub.restart_node(node)
        super().restart_node(node)


class RemoteStoreLocal:
    """Duck-typed stand-in for a remote store's ``LocalObject``.

    Holds the address/role identity the :class:`~repro.core.dso.Store`
    dataclass exposes; teardown is a no-op because the hub's supervisor
    owns the process.
    """

    def __init__(self, address: str, role: Role) -> None:
        self.address = address
        self.role = role

    def start(self) -> None:
        """No-op: the node process starts its own replication object."""

    def destroy(self) -> None:
        """No-op: process teardown belongs to the hub's supervisor."""


class _RemoteReads:
    """The ``engine.reads`` surface of a remote store (demand only)."""

    def __init__(self, proxy: "RemoteEngineProxy") -> None:
        self._proxy = proxy

    def demand(self, keys: Optional[List[str]] = None,
               want_full: bool = False) -> None:
        """Ask the node to issue a catch-up demand to its parent."""
        self._proxy.call(
            "demand",
            keys=list(keys) if keys is not None else None,
            want_full=want_full,
        )


class RemoteEngineProxy:
    """RPC proxy for the slice of the engine API harness code drives.

    ``version()`` / ``snapshot_state()`` / ``subscribe_child()`` /
    ``reads.demand()`` mirror :class:`~repro.replication.engine.
    StoreReplicationObject`; each is one synchronous hub->node call.
    """

    def __init__(self, hub: SocketHub, address: str,
                 parent: Optional[str] = None) -> None:
        self.hub = hub
        self.address = address
        self.parent = parent
        self.reads = _RemoteReads(self)

    def call(self, op: str, **kwargs: Any) -> Any:
        """One synchronous RPC against the node's dispatcher."""
        return self.hub.call(self.address, op, **kwargs)

    def version(self) -> Dict[str, int]:
        """The remote store's applied version vector."""
        return self.call("version")

    def snapshot_state(self) -> Dict[str, Any]:
        """The remote store's semantics snapshot."""
        return self.call("snapshot_state")

    def subscribe_child(self, address: str) -> None:
        """Add a downstream store to the remote propagation set."""
        self.call("subscribe_child", address=address)

    def counters(self) -> Dict[str, int]:
        """The remote engine's message counters (diagnostics)."""
        return self.call("counters")

    def start(self) -> None:
        """No-op: the node process started its own engine."""

    def stop(self) -> None:
        """No-op: node teardown stops the remote engine."""
