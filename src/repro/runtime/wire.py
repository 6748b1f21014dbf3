"""Socket framing for the multi-process live runtime.

Every byte between the hub and a store node travels as a length-prefixed
*frame*: a 4-byte big-endian payload length followed by the payload,
``pickle.dumps((kind, body), 5)`` -- a ``str`` kind and a ``dict`` body,
rich objects (a :class:`~repro.comm.message.Message`, a trace event)
included, in one C call each way.  Frames are **trusted**: both ends run
this code from one run directory, and unpickling runs whatever the bytes
say, so a hub socket must never be reachable by an untrusted peer.  What
the reader does guard against is a *faulty* peer: a length beyond
:data:`MAX_FRAME_BYTES`, or a payload that does not unpickle to a
``(str, dict)`` pair, is a :class:`WireError`, never a half-read frame.

Frame kinds (the complete vocabulary; handshake, liveness and goodbye
are :class:`~repro.runtime.server.FrameServer`'s own, on both hubs):

- ``hello`` / ``welcome`` -- node registration handshake (name + pid);
- ``data`` -- one datagram (src, dst, payload, size, reliability class);
- ``trace`` -- one coherence-trace event, streamed eagerly so a node's
  history survives a SIGKILL;
- ``call`` / ``reply`` -- hub-to-node RPC (version probes, subscribe,
  shutdown-adjacent control), correlated by ``call_id``;
- ``next`` / ``task`` / ``wait`` -- pull-based sweep dispatch: an idle
  worker requests work, the hub answers with one task or a backoff
  delay (:mod:`repro.exec.distributed` / :mod:`repro.exec.worker`);
- ``result`` -- one finished sweep point: codec-encoded payload bytes
  (digest-protected) plus worker-side telemetry;
- ``heartbeat`` -- liveness beats for the server's registry;
- ``bye`` -- orderly goodbye before close.

:class:`FrameChannel` wraps a connected socket in one of two modes.
*Blocking* (the handshake; a sweep worker throughout): ``send`` under a
lock from any thread, ``recv`` from one reader thread.  *Attached* (both
hubs and every node after ``hello``): the socket is non-blocking and
exactly one thread, a :class:`~repro.runtime.live.LiveLoop` dispatcher,
reads and writes it -- and a write never blocks without draining reads,
so two peers bursting at each other cannot deadlock.
:func:`connect_with_backoff` retries a refused/absent listener with
exponential backoff, which is how a node races its hub's bind without an
external barrier.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: 4-byte big-endian frame length prefix.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a longer length prefix means a
#: corrupt or hostile stream, not a legitimate message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Either a Unix-domain socket path or a ``(host, port)`` TCP endpoint.
Address = Union[str, Tuple[str, int]]


class WireError(ConnectionError):
    """A frame could not be read or written (peer gone, stream corrupt)."""


class FrameTooLarge(WireError):
    """A frame to send exceeds :data:`MAX_FRAME_BYTES`.

    Nothing was written and the peer is fine: unlike every other
    :class:`WireError`, the connection stays usable.
    """


def format_address(address: Address) -> str:
    """Render an address for argv/log transport (``unix:`` / ``tcp:``)."""
    if isinstance(address, str):
        return f"unix:{address}"
    host, port = address
    return f"tcp:{host}:{int(port)}"


def parse_address(text: str) -> Address:
    """Inverse of :func:`format_address`."""
    scheme, _, rest = text.partition(":")
    if scheme == "unix" and rest:
        return rest
    if scheme == "tcp" and rest:
        host, _, port = rest.rpartition(":")
        if host and port.isdigit():
            return (host, int(port))
    raise ValueError(f"unparseable wire address {text!r}")


def _make_socket(address: Address) -> socket.socket:
    family = socket.AF_UNIX if isinstance(address, str) else socket.AF_INET
    return socket.socket(family, socket.SOCK_STREAM)


def listen(address: Address, backlog: int = 16) -> socket.socket:
    """Bind and listen on ``address`` (stale Unix paths are unlinked)."""
    if isinstance(address, str) and os.path.exists(address):
        os.unlink(address)
    sock = _make_socket(address)
    if not isinstance(address, str):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(address)
    sock.listen(backlog)
    return sock


def connect_with_backoff(
    address: Address,
    timeout: float = 10.0,
    base_delay: float = 0.01,
    max_delay: float = 0.25,
    on_attempt: Optional[Callable[[int], None]] = None,
) -> socket.socket:
    """Connect to ``address``, retrying a not-yet-listening peer.

    Attempts are spaced by exponential backoff (``base_delay`` doubling
    up to ``max_delay``) until ``timeout`` wall seconds have passed; each
    attempt index is reported to ``on_attempt`` (tests count retries).
    Raises :class:`WireError` when the deadline expires.
    """
    deadline = time.monotonic() + timeout
    delay = base_delay
    attempt = 0
    while True:
        attempt += 1
        if on_attempt is not None:
            on_attempt(attempt)
        sock = _make_socket(address)
        try:
            sock.connect(address)
            return sock
        except OSError as exc:
            sock.close()
            if time.monotonic() + delay > deadline:
                raise WireError(
                    f"could not connect to {format_address(address)} "
                    f"after {attempt} attempts: {exc}"
                ) from exc
        time.sleep(delay)
        delay = min(delay * 2, max_delay)


#: One decoded frame: its kind and its body.
Frame = Tuple[str, Dict[str, Any]]


class FrameChannel:
    """One framed connection end (modes: see the module docstring).

    Reads go through a buffer: one ``recv(65536)`` per wake-up, however
    many frames it carries or however a frame is split across reads.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Whatever the owner wants to remember about the other end.
        self.peer: Any = None
        self._send_lock = threading.Lock()
        #: Set by :meth:`close`; a frame server routes no frame read after.
        self.closed = False
        self._buffer = bytearray()
        self._loop: Any = None  # the owning loop, once attached
        self._corked: Optional[List[bytes]] = None
        #: Framed bytes written/read on this channel (headers included).
        #: The sweep hub folds these into its ``wire_bytes`` transport
        #: accounting; counters survive close.
        self.sent_bytes = 0
        self.recv_bytes = 0

    @property
    def buffered(self) -> int:
        """Bytes read off the socket and not yet returned as frames."""
        return len(self._buffer)

    def send(self, kind: str, **body: Any) -> None:
        """Encode and write one ``kind`` frame; raises on a dead peer.

        Blocking mode: any thread.  Attached: the dispatcher only, and
        the frame waits for :meth:`uncork` while the channel is corked.
        """
        blob = pickle.dumps((kind, body), 5)
        if len(blob) > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"frame {kind!r} is {len(blob)} bytes; the limit is "
                f"{MAX_FRAME_BYTES}"
            )
        data = _HEADER.pack(len(blob)) + blob
        if self._corked is not None:
            self._corked.append(data)
        elif self._loop is not None:
            self._write(data)
        else:
            with self._send_lock:
                if self.closed:
                    raise WireError("channel closed")
                try:
                    self.sock.sendall(data)
                except OSError as exc:
                    raise WireError(
                        f"peer gone while sending {kind!r}") from exc
                self.sent_bytes += len(data)

    def recv(self, timeout: Optional[float] = None) -> Optional[Frame]:
        """Read one frame (blocking mode); ``None`` on EOF (peer closed or
        was killed) or when no whole frame came within ``timeout`` seconds
        (at most twice that, for a peer that trickles bytes)."""
        if self.sock.gettimeout() != timeout:
            self.sock.settimeout(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            frame = self._next_frame()
            if frame is not None:
                return frame
            if (deadline is not None and deadline <= time.monotonic()
                    or not self._fill()):
                return None

    # -- attached: non-blocking, one thread reads and writes -----------------

    def attach(self, loop: Any, on_frame: Callable[..., None],
               on_lost: Callable[..., None],
               stall_timeout: Optional[float] = None) -> None:
        """Hand the channel to ``loop``'s dispatcher, from now on the only
        thread that reads it (``on_frame(channel, kind, body)`` per
        frame) or may :meth:`send`.  ``on_lost(channel)`` reports a
        channel that closed itself: EOF, a corrupt stream, an
        ``on_frame`` that raised :class:`WireError`, a peer that is gone
        or took none of a write for ``stall_timeout`` seconds.
        """
        self.sock.setblocking(False)
        self._on_frame, self._on_lost = on_frame, on_lost
        self._stall_timeout = stall_timeout
        self._loop = loop
        loop.add_reader(self.sock, self.pump)

    def pump(self, fill: bool = True) -> None:
        """Reader callback: one ``recv`` (unless ``fill`` is false), then
        every whole buffered frame to ``on_frame``."""
        try:
            open_ = not fill or self._fill()
            while True:
                frame = self._next_frame()
                if frame is None:
                    break
                self._on_frame(self, *frame)
            if not open_:
                raise WireError("peer closed the connection")
        except WireError:
            self._lose()

    def cork(self) -> None:
        """Hold every :meth:`send` from now on back for :meth:`uncork`."""
        self._corked = []

    def uncork(self) -> None:
        """Write the frames sent since :meth:`cork` with one ``write``."""
        data, self._corked = b"".join(self._corked), None
        if data:
            self._write(data)

    def _write(self, data: bytes) -> None:
        """Write without ever blocking on a full socket: while it takes
        no more, what the peer has sent is drained into the read buffer
        (so a peer stuck writing to us gets to read again) and pumped
        before the loop next sleeps."""
        view, drained, stalled_at = memoryview(data), False, None
        try:
            while True:
                try:
                    sent = self.sock.send(view)
                except BlockingIOError:
                    sent = 0
                view = view[sent:]
                if not view:
                    break
                now = time.monotonic()
                if sent or stalled_at is None:
                    stalled_at = now
                left = (None if self._stall_timeout is None
                        else stalled_at + self._stall_timeout - now)
                if left is not None and left <= 0:
                    raise TimeoutError("peer stopped reading")
                if self.poll(left, write=True) & ~select.POLLOUT:
                    drained = True
                    if not self._fill():
                        raise ConnectionResetError("peer closed")
        except OSError as exc:
            self._lose()
            raise WireError(f"write failed: {exc}") from exc
        finally:
            if drained:
                self._loop.submit(self.pump, False)
        self.sent_bytes += len(data)

    def _lose(self) -> None:
        self.close()
        self._on_lost(self)

    def poll(self, timeout: Optional[float], write: bool = False) -> int:
        """Wait for the socket to turn readable (or, with ``write``,
        writable): the ``select.poll`` event mask, ``0`` on timeout."""
        poller = select.poll()
        try:
            poller.register(
                self.sock, select.POLLIN | (select.POLLOUT if write else 0))
        except (OSError, ValueError):
            return select.POLLHUP  # closed under us by another thread
        ready = poller.poll(
            None if timeout is None else max(0.0, timeout) * 1e3)
        return ready[0][1] if ready else 0

    # -- both modes ----------------------------------------------------------

    def _fill(self) -> bool:
        """One ``recv`` into the buffer; ``False`` at EOF or on an error."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return True
        except OSError:
            return False
        self._buffer += chunk
        return bool(chunk)

    def _next_frame(self) -> Optional[Frame]:
        """Take one whole frame off the buffer, if it holds one."""
        buffer = self._buffer
        if len(buffer) < _HEADER.size:
            return None
        end = _HEADER.size + _HEADER.unpack_from(buffer)[0]
        if end > _HEADER.size + MAX_FRAME_BYTES:
            raise WireError(f"oversized frame ({end} bytes): corrupt peer")
        if len(buffer) < end:
            return None
        try:
            frame = pickle.loads(buffer[_HEADER.size:end])
        except Exception as exc:  # unpickling fails in arbitrary ways
            raise WireError(f"undecodable frame: {exc!r}") from exc
        if not (type(frame) is tuple and len(frame) == 2
                and isinstance(frame[0], str) and isinstance(frame[1], dict)):
            raise WireError("frame is not a (kind, body) pair")
        del buffer[:end]
        self.recv_bytes += end
        return frame

    def close(self) -> None:
        """Leave the loop's reader set, then close the socket (idempotent)."""
        with self._send_lock:
            if self.closed:
                return
            self.closed = True
        if self._loop is not None:
            self._loop.remove_reader(self.sock)
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
