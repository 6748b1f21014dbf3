"""Store-node process entry point: ``python -m repro.runtime.node``.

One store of a distributed shared object, running in its own OS process.
The node connects back to its hub (retrying with backoff, so spawn order
never matters), assembles the exact same ``LocalObject`` composition the
in-process backends build -- a :class:`~repro.runtime.live.LiveLoop`
dispatcher, the replication engine, a :class:`WebDocument` semantics
object -- and bridges its transport over one framed socket:

- outgoing datagrams become ``data`` frames; the hub routes them through
  its :class:`~repro.runtime.live.LiveNetwork` send path, so latency,
  loss, partitions and every stats counter are applied in exactly one
  place;
- the dispatcher reads the hub socket itself and handles each ``data``
  and ``call`` frame as it reads it: it is the node's one protocol *and*
  I/O thread, the only one that touches engine, journal and socket;
- trace rows are forwarded to the hub *eagerly*: the node's recorder is
  drained into a ``trace`` frame ahead of every datagram, call reply and
  heartbeat, and at the end of each handled ``data`` frame (everything
  one handled ``data`` frame produced leaves in a single write), so the
  recorded history is complete even when the process is SIGKILLed the
  next instant, and the node keeps no row;
- after every handled frame the node appends what durably changed to its
  :class:`~repro.runtime.journal.Journal` (nothing, for a frame that
  changed nothing) and now and then folds the journal into a new
  snapshot, which is what lets a re-spawned process resume as the same
  replica (``--restore``) with semantics matching the in-memory backends,
  where a crashed node's engine state survives in the hub process.

A daemon timer on the same loop beats the hub's registry every
``heartbeat_interval`` seconds; the main thread only waits for ``bye``
or hub EOF and then tears the node down.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.coherence.trace import TraceRecorder
from repro.core.interfaces import Role
from repro.core.local_object import LocalObject
from repro.replication.engine import StoreReplicationObject
from repro.runtime.journal import Journal, JournalError
from repro.runtime.live import LiveLoop
from repro.runtime.wire import (
    FrameChannel,
    connect_with_backoff,
    parse_address,
)
from repro.web.document import WebDocument


class NodeTransport:
    """The node-side :class:`~repro.transport.interface.Transport`.

    Exactly one address (this store) registers locally; every outgoing
    datagram is framed to the hub, which owns routing, fault gating and
    statistics.  Incoming datagrams are injected by the node runtime via
    :meth:`deliver` on the dispatcher thread.
    """

    def __init__(self, channel: FrameChannel, trace: TraceRecorder) -> None:
        self.channel = channel
        self.trace = trace
        self._handlers: Dict[str, Any] = {}

    def register(self, node: str, handler: Any) -> None:
        """Attach the local store's receive handler."""
        self._handlers[node] = handler

    def unregister(self, node: str) -> None:
        """Detach the local store."""
        self._handlers.pop(node, None)

    def forward_trace(self) -> None:
        """Frame the rows recorded since the last call to the hub.

        The node's recorder keeps nothing after this (see
        :meth:`~repro.coherence.trace.TraceRecorder.drain`); the hub
        records each row through the same ``record_*`` entry.
        """
        rows = self.trace.drain()
        if rows:
            self.channel.send("trace", rows=rows)

    def send(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int = 0,
        reliable: bool = True,
    ) -> None:
        """Frame one datagram to the hub for routing, after the trace
        rows recorded before it."""
        self.forward_trace()
        self.channel.send(
            "data",
            src=src,
            dst=dst,
            payload=payload,
            size=int(size_bytes),
            reliable=bool(reliable),
        )

    def multicast(
        self,
        src: str,
        dsts: Any,
        payload: object,
        size_bytes: int = 0,
        reliable: bool = True,
    ) -> None:
        """Send the same payload to every destination (skipping ``src``)."""
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload, size_bytes=size_bytes,
                          reliable=reliable)

    def deliver(self, dst: str, src: str, payload: object,
                size_bytes: int) -> None:
        """Hand an incoming datagram to the registered handler, if any."""
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, payload, size_bytes)


class NodeRuntime:
    """Everything one store-node process runs: loop, store, wire bridge."""

    def __init__(
        self,
        name: str,
        channel: FrameChannel,
        spec: Dict[str, Any],
        restore: bool = False,
    ) -> None:
        self.name = name
        self.channel = channel
        self.spec = spec
        self.loop = LiveLoop(seed=spec["seed"])
        self.trace = TraceRecorder()
        self.transport = NodeTransport(channel, self.trace)
        document = WebDocument(clock=lambda: self.loop.now)
        if spec.get("semantics_state") is not None:
            document.restore(spec["semantics_state"])
        self.engine = StoreReplicationObject(
            policy=spec["policy"],
            role=Role(spec["role"]),
            parent=spec.get("parent"),
            children=spec.get("children"),
            trace=self.trace,
            allowed_writer=spec.get("allowed_writer"),
        )
        self.local = LocalObject(
            sim=self.loop,
            network=self.transport,
            address=spec["address"],
            role=Role(spec["role"]),
            replication=self.engine,
            semantics=document,
            reliable_transport=spec.get("reliable_transport", True),
        )
        self.journal = Journal(spec["checkpoint_path"], fresh=not restore)
        if restore:
            self.journal.recover(self.engine)
        self._done = threading.Event()

    # -- frame handlers (run on the dispatcher thread) -----------------------

    def _on_frame(self, _channel: FrameChannel, kind: str,
                  body: Dict[str, Any]) -> None:
        if kind == "data":
            self._handle_data(body)
        elif kind == "call":
            self._handle_call(body)
        elif kind == "bye":
            self._done.set()
        # "welcome" and unknown frames are ignored.

    def _handle_data(self, body: Dict[str, Any]) -> None:
        # Whatever the handler sends -- trace events first, as recorded --
        # leaves as one write, and only then is the frame made durable.
        self.channel.cork()
        try:
            self.transport.deliver(
                body["dst"], body["src"], body["payload"], body["size"]
            )
            self.transport.forward_trace()
        finally:
            self.channel.uncork()
        self.journal.persist(self.engine)

    def _handle_call(self, body: Dict[str, Any]) -> None:
        call_id = body["call_id"]
        op = body["op"]
        kwargs = body.get("kwargs") or {}
        try:
            if op == "version":
                result: Any = self.engine.version()
            elif op == "snapshot_state":
                result = self.engine.snapshot_state()
            elif op == "subscribe_child":
                self.engine.subscribe_child(kwargs["address"])
                result = None
            elif op == "demand":
                self.engine.reads.demand(
                    keys=kwargs.get("keys"),
                    want_full=kwargs.get("want_full"),
                )
                result = None
            elif op == "counters":
                result = dict(self.engine.counters)
            elif op == "ping":
                result = "pong"
            else:
                raise ValueError(f"unknown node op {op!r}")
        except Exception as exc:
            self.transport.forward_trace()
            self.journal.persist(self.engine)
            self.channel.send("reply", call_id=call_id, error=repr(exc))
            return
        self.transport.forward_trace()
        self.journal.persist(self.engine)
        self.channel.send("reply", call_id=call_id, result=result)

    def _beat(self) -> None:
        self.loop.schedule(self.spec.get("heartbeat_interval", 0.25),
                           self._beat, daemon=True)
        # Rows a timer recorded without sending anything go out here.
        self.transport.forward_trace()
        self.channel.send("heartbeat", node=self.name)

    def run(self) -> int:
        """Start the store and serve frames until ``bye``/EOF."""
        self.local.start()
        self.journal.snapshot(self.engine)
        # ``hello`` goes out alone, before the dispatcher runs a single
        # timer; from ``attach`` on the channel is the dispatcher's.
        self.channel.send("hello", node=self.name, pid=os.getpid())
        self.loop.start()
        self.channel.attach(self.loop, self._on_frame,
                            lambda _channel: self._done.set())
        self.loop.submit(self._beat)
        try:
            self._done.wait()
        finally:
            self.loop.stop()
            try:
                self.local.destroy()
            except Exception:
                pass
            self.journal.close()
            self.channel.close()
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, connect to the hub, and run the store node."""
    parser = argparse.ArgumentParser(prog="repro.runtime.node")
    parser.add_argument("--hub", required=True,
                        help="hub address (unix:<path> or tcp:<host>:<port>)")
    parser.add_argument("--node", required=True, help="this store's name")
    parser.add_argument("--spec", required=True,
                        help="path to the pickled node spec")
    parser.add_argument("--restore", action="store_true",
                        help="resume the replica from its snapshot + journal")
    args = parser.parse_args(argv)
    with open(args.spec, "rb") as fh:
        spec = pickle.loads(fh.read())
    sock = connect_with_backoff(parse_address(args.hub))
    channel = FrameChannel(sock)
    try:
        runtime = NodeRuntime(args.node, channel, spec, restore=args.restore)
    except JournalError as exc:
        print(f"node {args.node}: cannot restore: {exc}", file=sys.stderr)
        channel.close()
        return 1
    return runtime.run()


if __name__ == "__main__":
    sys.exit(main())
