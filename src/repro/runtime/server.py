"""The one frame server: both hubs are this plus a handler table.

The store hub (:mod:`repro.runtime.socket`) and the sweep hub
(:mod:`repro.exec.distributed`) each serve their peers through one
:class:`FrameServer` on a :class:`~repro.runtime.live.LiveLoop`: bind in
the constructor (connects wait in the backlog), one ``repro-hub-accept``
thread, a transient ``repro-hub-hello`` thread per connection (``hello``
under a deadline, off the dispatcher -- whose current event may be
waiting for that very ``hello``), then the channel is attached and the
dispatcher alone reads it, writes it and runs
``handlers[kind](channel, body)``.  Whatever a peer gets wrong -- a
frame before ``hello``, a second one, an unknown kind, a body its
handler raises on, silence -- costs that connection only.  The registry
is the one name -> connection map; a name said twice goes to the newest
connection.  Liveness is a daemon timer on the same loop (rules at
:meth:`FrameServer._liveness`), teardown one :meth:`FrameServer.shutdown`.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from types import SimpleNamespace
from typing import Any, Callable, Dict, Mapping, Optional

from repro.runtime.registry import Registry
from repro.runtime.wire import Address, FrameChannel, WireError, listen


class FrameServer:
    """Serve framed connections on ``address`` over ``loop`` (see above).

    ``welcome(name)`` gives the extra fields of the ``welcome`` frame;
    ``on_lost(name)`` reports, once, a connection that was dropped or
    closed itself.  Both run under the lock every handler runs under, so
    a ``hello`` never interleaves with frames of the connection it ends.
    """

    def __init__(
        self,
        address: Address,
        loop: Any,
        handlers: Mapping[str, Callable[[FrameChannel, Dict[str, Any]], None]],
        welcome: Callable[[str], Dict[str, Any]] = lambda name: {},
        on_lost: Callable[[str], None] = lambda name: None,
        heartbeat_ttl: float = 2.0,
        hello_timeout: float = 10.0,
        stall_timeout: float = 10.0,
    ) -> None:
        self.loop = loop
        self.welcome = welcome
        self.on_lost = on_lost
        self.hello_timeout = hello_timeout
        self.stall_timeout = stall_timeout
        self.registry = Registry(ttl=heartbeat_ttl)
        #: Where frames are counted: any object with ``frames_sent`` and
        #: ``frames_received`` (the store hub's ``NetworkStats``).
        self.stats: Any = SimpleNamespace(frames_sent=0, frames_received=0)
        # A beat counts for the name said at ``hello``, whatever it says.
        self._handlers = {**handlers, "heartbeat": lambda channel, _body:
                          self.registry.beat(channel.peer, time.monotonic())}
        self._lock = threading.RLock()
        self._closing = False
        #: Every connection ever accepted (its byte counters survive
        #: close) and the thread that greeted it.
        self._accepted: Dict[FrameChannel, threading.Thread] = {}
        self.listener = listen(address)
        #: Where peers connect (a TCP port 0 is resolved).
        self.address: Address = (
            address if isinstance(address, str)
            else self.listener.getsockname()[:2]
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )

    def start(self) -> None:
        """Start accepting, and the liveness timer on the loop -- which
        must be running: a loop that is not never calls a reader back."""
        self._accept_thread.start()
        self.loop.submit(self._liveness, time.monotonic())

    # -- the name -> connection map ------------------------------------------

    def channel_for(self, name: str) -> Optional[FrameChannel]:
        """``name``'s attached channel, or ``None`` when not connected."""
        entry = self.registry.lookup(name)
        return entry.conn if entry is not None else None

    def drop(self, name: str, only: Optional[FrameChannel] = None) -> None:
        """Close ``name``'s connection, forget it and report it lost --
        with ``only``, if that is still its connection (a restarted peer
        may have replaced it already)."""
        with self._lock:
            entry = self.registry.lookup(name)
            if entry is None or (only is not None and entry.conn is not only):
                return
            self.registry.deregister(name)
            if entry.conn is not None:
                entry.conn.close()
            self.on_lost(name)

    @property
    def wire_bytes(self) -> int:
        """Framed bytes written and read, over every connection so far."""
        return sum(channel.sent_bytes + channel.recv_bytes
                   for channel in list(self._accepted))

    def send(self, channel: FrameChannel, kind: str, **body: Any) -> None:
        """Write one counted frame (attached channels: dispatcher only)."""
        self.stats.frames_sent += 1
        channel.send(kind, **body)

    # -- accept and handshake ------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return  # listener shut down
            channel = FrameChannel(sock)
            thread = threading.Thread(target=self._greet, args=(channel,),
                                      name="repro-hub-hello", daemon=True)
            with self._lock:
                self._accepted[channel] = thread
            thread.start()

    def _greet(self, channel: FrameChannel) -> None:
        """Handshake one connection under the ``hello`` deadline."""
        try:
            frame = channel.recv(timeout=self.hello_timeout)
            if frame is None or frame[0] != "hello":
                raise WireError("no hello")
            name, pid = str(frame[1]["node"]), int(frame[1]["pid"])
            with self._lock:
                if self._closing:
                    raise WireError("server shutting down")
                self.stats.frames_received += 1
                self.drop(name)  # a name said twice: the newest wins
                self.send(channel, "welcome", node=name, **self.welcome(name))
                channel.peer = name
                self.registry.register(name, pid, conn=channel,
                                       now=time.monotonic())
                channel.attach(self.loop, self._on_frame,
                               lambda lost: self.drop(name, only=lost),
                               stall_timeout=self.stall_timeout)
        except (WireError, KeyError, TypeError, ValueError, OSError):
            channel.close()

    # -- attached channels (dispatcher) --------------------------------------

    def _on_frame(self, channel: FrameChannel, kind: str,
                  body: Dict[str, Any]) -> None:
        """Run one frame's handler; any failure ends this connection."""
        with self._lock:
            self.stats.frames_received += 1
            if channel.closed:
                raise WireError("connection dropped or superseded")
            handler = self._handlers.get(kind)
            if handler is None:
                raise WireError(f"unexpected {kind!r} frame")
            try:
                handler(channel, body)
            except WireError:
                raise
            except Exception as exc:
                traceback.print_exc()
                raise WireError(f"{kind!r} frame failed: {exc!r}") from exc

    def _liveness(self, due: float) -> None:
        """One liveness round, ``due`` being when it should have run: a
        peer silent past the TTL has its connection **dropped**, so
        nothing is written to it again.  A round more than a period late
        judges nobody: whatever held the dispatcher also kept it from
        reading the beats that sit in its sockets."""
        now, period = time.monotonic(), self.registry.ttl / 4
        self.loop.schedule(period, self._liveness, now + period, daemon=True)
        if now - due <= period:
            for name in self.registry.names():
                if not self.registry.alive(name, now):
                    self.drop(name)

    # -- teardown ------------------------------------------------------------

    def shutdown(self, reap: Callable[[], None]) -> None:
        """Once the loop has stopped: ``bye`` to every peer, stop
        accepting, ``reap()`` -- where the owner waits for, or stops, the
        peers that are its children -- then close every connection."""
        with self._lock:
            self._closing = True
        names = self.registry.names()
        for channel in filter(None, map(self.channel_for, names)):
            try:
                self.send(channel, "bye")
            except WireError:
                pass
        try:
            # close() alone leaves a thread blocked in accept() asleep on
            # Linux; shutting the listening socket down wakes it.
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        reap()
        if self._accept_thread.is_alive():
            self._accept_thread.join(timeout=2.0)
        for channel, thread in list(self._accepted.items()):
            channel.close()
            thread.join(timeout=2.0)
        for name in names:
            self.registry.deregister(name)
