"""Hub side of the socket runtime: routing, node RPC, fault teeth.

The ``live-socket`` backend keeps the *driving* half of a deployment --
the dispatcher loop, every client address space, the shared trace
recorder and the fault-control surface -- in the parent process (the
"hub"), while every store runs in its own OS process
(:mod:`repro.runtime.node`).  One frame socket connects each node back
here, served by the :class:`~repro.runtime.server.FrameServer` the sweep
hub runs too; :class:`SocketHub` adds the ``data``/``trace``/``reply``
handlers, node lifecycle and hub-to-node RPC.

Design rule: **every datagram crosses the hub's network send path
exactly once.**  Client traffic originates on the hub dispatcher and
enters :meth:`SocketNetwork.send` directly; node-originated traffic
arrives as ``data`` frames, which the dispatcher -- the one thread that
reads and writes every node socket -- hands to the same method as it
reads them.  Latency, partitions, crash gating and every
``NetworkStats`` counter therefore behave identically to the
in-process backends -- which is what makes the cross-backend coherence
signatures comparable at all.

Boot: :meth:`SocketHub.spawn_node` only records a node's spec, and
:meth:`SocketHub.boot` -- run by ``SocketBackend.start()``, or by the
first call, datagram or ``node_pid`` that needs a recorded node --
spawns every recorded node at once and then waits for their ``hello``\\ s.
A store subscribing to a parent not yet booted joins the parent's spec
(``children``) instead of costing an RPC, so a tree boots in one stage.

Fault teeth: :meth:`SocketNetwork.crash_node` first applies the shared
:class:`~repro.faults.transport.FaultableTransportMixin` semantics
(queued/in-flight drops, counters), then SIGKILLs the node's real
process; :meth:`SocketNetwork.restart_node` re-spawns it with
``--restore`` so the replica resumes from its snapshot + journal, then
lifts the crash mark.  A node whose heartbeats go silent past the TTL
loses its connection, so traffic toward it drops as unregistered at
once instead of holding the dispatcher in a write nobody reads.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.coherence.trace import TraceRecorder
from repro.core.interfaces import Role
from repro.runtime.live import LiveLoop, LiveNetwork
from repro.runtime.server import FrameServer
from repro.runtime.supervisor import NodeSupervisor
from repro.runtime.wire import FrameChannel, WireError


class SocketRuntimeError(RuntimeError):
    """A node could not be spawned, reached, or called."""


class SocketHub:
    """The store hub: a :class:`FrameServer` plus node lifecycle and RPC.

    One hub per deployment, served on the deployment's :class:`LiveLoop`.
    Threads, whatever the node count: that loop's dispatcher, which alone
    reads and writes a channel after ``hello``, and the server's accept
    thread (plus a short-lived handshake thread per connecting peer).
    """

    def __init__(
        self,
        loop: LiveLoop,
        run_dir: Optional[str] = None,
        call_timeout: float = 10.0,
        heartbeat_ttl: float = 2.0,
        heartbeat_interval: float = 0.25,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.loop = loop
        self.run_dir = run_dir or tempfile.mkdtemp(prefix="repro-hub-")
        self._owns_run_dir = run_dir is None
        self.address = os.path.join(self.run_dir, "hub.sock")
        self.call_timeout = call_timeout
        self.heartbeat_interval = heartbeat_interval
        self.trace = trace
        #: Its ``hello_timeout`` doubles as the deadline for a node's boot.
        self.server = FrameServer(
            self.address, loop,
            {"data": self._on_data, "trace": self._on_trace,
             "reply": lambda _channel, body: self._resolve_call(body)},
            heartbeat_ttl=heartbeat_ttl, stall_timeout=call_timeout,
        )
        #: The server's name -> connection map, under the hub's old names.
        self.registry = self.server.registry
        self.channel_for = self.server.channel_for
        self.supervisor = NodeSupervisor(self.run_dir, self.address)
        #: The deployment's :class:`SocketNetwork`; set by the backend
        #: right after construction (the two reference each other).
        self.network: Optional[SocketNetwork] = None
        self._calls: Dict[int, Dict[str, Any]] = {}
        self._call_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Specs of the nodes the next :meth:`boot` spawns, by name.
        self._pending: Dict[str, Dict[str, Any]] = {}
        #: Held for the whole of a boot, so a caller that needs a node
        #: waits until the boot that brings it up has finished.
        self._boot_lock = threading.Lock()

    def start(self) -> None:
        """Start serving; the backend calls this once ``network`` is set."""
        self.server.stats = self.network.stats
        self.server.start()

    # -- node lifecycle ------------------------------------------------------

    def spawn_node(self, name: str, spec: Dict[str, Any]) -> None:
        """Record ``spec``; the node comes up with the next :meth:`boot`."""
        spec = dict(spec)
        spec.setdefault("checkpoint_path",
                        self.supervisor.checkpoint_path(name))
        spec.setdefault("heartbeat_interval", self.heartbeat_interval)
        with self._lock:
            self._pending[name] = spec

    def adopt_child(self, name: str, child: str) -> bool:
        """Add ``child`` to the initial children of pending node ``name``;
        ``False`` if ``name`` is not pending (subscribe over RPC then)."""
        with self._lock:
            spec = self._pending.get(name)
            if spec is None:
                return False
            spec.setdefault("children", []).append(child)
            return True

    def boot(self) -> None:
        """Spawn every pending node at once, then wait for each ``hello``.

        No cap on how many start together: the largest ``live-socket``
        tree anywhere in the repo has 5 stores.  If one node fails to
        register, every node of this boot is killed before the error is
        raised, so a failed build leaves no child process behind.
        """
        with self._boot_lock:
            with self._lock:
                pending, self._pending = self._pending, {}
            started = []
            for name, spec in pending.items():
                self.supervisor.write_spec(name, spec)
                started.append((name, self.supervisor.spawn(name),
                                time.monotonic() + self.server.hello_timeout))
            try:
                for name, proc, deadline in started:
                    self._await_hello(name, proc, deadline)
            except SocketRuntimeError:
                for name, _proc, _deadline in started:
                    self.kill_node(name)
                raise

    def _booted(self) -> None:
        """Return once no node is pending or booting (cheap when none is)."""
        if self._pending or self._boot_lock.locked():
            self.boot()

    def _launch(self, name: str, restore: bool) -> None:
        proc = self.supervisor.spawn(name, restore=restore)
        self._await_hello(name, proc,
                          time.monotonic() + self.server.hello_timeout)

    def _await_hello(self, name: str, proc: Any, deadline: float) -> None:
        log = self.supervisor.log_path(name)
        # Polled, so a child that died on start-up (an unreadable
        # snapshot, a bad spec) is reported now, not at the deadline.
        while self.channel_for(name) is None:
            time.sleep(0.001)
            status = proc.poll()
            if status is not None:
                raise SocketRuntimeError(
                    f"node {name!r} exited with status {status} before "
                    f"registering (see {log})"
                )
            if time.monotonic() >= deadline:
                raise SocketRuntimeError(
                    f"node {name!r} did not register within "
                    f"{self.server.hello_timeout}s (see {log})"
                )

    def kill_node(self, name: str) -> int:
        """SIGKILL the node's process; returns the dead PID."""
        # Forgotten first: a deliberate kill is never reported as a loss.
        entry = self.registry.deregister(name)
        pid = self.supervisor.kill(name)
        if entry is not None:
            entry.conn.close()
        return pid

    def restart_node(self, name: str) -> None:
        """Re-spawn a killed node as the same replica; blocks until up."""
        self._launch(name, restore=True)

    def node_pid(self, name: str) -> int:
        """The node's current process id."""
        self._booted()
        return self.supervisor.pid(name)

    # -- node RPC ------------------------------------------------------------

    def call(self, node: str, op: str, timeout: Optional[float] = None,
             **kwargs: Any) -> Any:
        """Run ``op(**kwargs)`` on the node's dispatcher; block for it.

        Safe from any hub thread.  Off the dispatcher the ``call`` frame
        is submitted to it and the reply awaited on a latch; *on* the
        dispatcher -- the thread that would read the reply -- the frame
        is sent and that one channel pumped inline until the reply.
        """
        self._booted()
        channel = self.channel_for(node)
        if channel is None:
            raise SocketRuntimeError(f"node {node!r} is not connected")
        call_id = next(self._call_ids)
        latch = threading.Lock()
        latch.acquire()
        slot: Dict[str, Any] = {"latch": latch, "error": "no reply"}
        with self._lock:
            self._calls[call_id] = slot
        deadline = time.monotonic() + (timeout or self.call_timeout)
        if not self.loop.on_dispatcher:
            self.loop.submit(self._send_call, channel, call_id, op, kwargs)
            latch.acquire(timeout=deadline - time.monotonic())
        else:
            self._send_call(channel, call_id, op, kwargs)
            while (call_id in self._calls
                   and self.channel_for(node) is channel
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
            self.server.send(channel, "call", call_id=call_id, op=op,
                             kwargs=kwargs)
        except WireError as exc:
            self._resolve_call({"call_id": call_id, "error": str(exc)})

    # -- frame plumbing (attached channels: dispatcher only) -----------------

    def forward(self, dst: str, src: str, payload: object,
                size_bytes: int) -> bool:
        """Frame one routed datagram out to node ``dst`` (dispatcher)."""
        self._booted()
        channel = self.channel_for(dst)
        if channel is None:
            return False
        try:
            self.server.send(channel, "data", src=src, dst=dst,
                             payload=payload, size=size_bytes, reliable=True)
        except WireError:
            return False
        return True

    def _on_data(self, _channel: FrameChannel, body: Dict[str, Any]) -> None:
        """A node-origin datagram re-enters the one canonical send path --
        stats, fault gates and latency are applied there and nowhere
        else -- which only *schedules* the arrival, so no handler runs
        re-entrantly."""
        self.network.send(body["src"], body["dst"], body["payload"],
                          body["size"], body["reliable"])

    def _on_trace(self, _channel: FrameChannel, body: Dict[str, Any]) -> None:
        """Append a node's trace event to the shared recorder.

        Its position in the hub recorder's ``events`` is its global
        order.  Per-lane order (all the signature cares about) is kept
        because each node streams its own events in recording order.
        """
        recorder = self.trace
        if recorder is not None:
            recorder.events.append(body["event"])

    def _resolve_call(self, body: Dict[str, Any]) -> None:
        with self._lock:
            slot = self._calls.pop(body["call_id"], None)
        if slot is None:
            return
        slot["error"] = body.get("error")
        slot["result"] = body.get("result")
        slot["latch"].release()

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every node, close every socket, remove the run dir."""
        self.server.shutdown(self.supervisor.shutdown)
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
               want_full: Optional[bool] = None) -> None:
        """Ask the node to issue a catch-up demand to its parent
        (``want_full=None``: the node's policy chooses, as in-process)."""
        self._proxy.call(
            "demand",
            keys=list(keys) if keys is not None else None,
            want_full=want_full,
        )


class RemoteEngineProxy:
    """RPC proxy for the slice of the engine API harness code drives.

    ``version()`` / ``snapshot_state()`` / ``subscribe_child()`` /
    ``reads.demand()`` mirror :class:`~repro.replication.engine.
    StoreReplicationObject`; each is one synchronous hub->node call,
    except a subscription to a node not yet booted, which rides in its
    spec.
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
        """Add a downstream store to the remote propagation set: into
        the spec of a node not yet booted, else over RPC."""
        if not self.hub.adopt_child(self.address, address):
            self.call("subscribe_child", address=address)

    def counters(self) -> Dict[str, int]:
        """The remote engine's message counters (diagnostics)."""
        return self.call("counters")

    def start(self) -> None:
        """No-op: the node process started its own engine."""

    def stop(self) -> None:
        """No-op: node teardown stops the remote engine."""
