"""Socket framing for the multi-process live runtime.

Every byte between the hub and a store node travels as a length-prefixed
*frame*: a 4-byte big-endian payload length followed by the payload,
which is one :mod:`repro.exec.codec`-encoded dict ``{"kind": ..., "body":
{...}}``.  Plain protocol fields ride the codec's native tags; rich
objects (a :class:`~repro.comm.message.Message`, a trace event) ride its
pickle-frame fallback, so the one deterministic codec from the sweep
transport is also the wire format here (ROADMAP: one wire layer, two
uses).

Frame kinds (the complete vocabulary; the store runtime and the sweep
hub share the handshake/liveness frames):

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
- ``heartbeat`` -- node liveness beats for the registry;
- ``bye`` -- orderly goodbye before close.

:class:`FrameChannel` wraps a connected socket with a send lock (the
node's dispatcher, heartbeat thread and reader may interleave sends) and
partial-read-safe receive.  :func:`connect_with_backoff` retries a
refused/absent listener with exponential backoff, which is how a node
races its hub's bind without an external barrier.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

# NOTE: repro.exec.codec is imported inside send/recv, not here.  The
# exec package's own init imports this module (via the sweep hub), so a
# module-level import back into repro.exec would make the two packages'
# initialization order matter; the function-level import is a
# sys.modules hit after the first frame.

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


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean mid-message EOF."""
    chunks = bytearray()
    while len(chunks) < count:
        try:
            chunk = sock.recv(count - len(chunks))
        except OSError:
            return None
        if not chunk:
            return None
        chunks += chunk
    return bytes(chunks)


class FrameChannel:
    """One framed, thread-safe connection end.

    ``send`` may be called from any thread (a lock serializes writers, so
    a heartbeat never interleaves bytes into a data frame); ``recv`` must
    be called from a single reader thread, as on both ends of this
    protocol.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        #: Framed bytes written/read on this channel (headers included).
        #: The sweep hub folds these into its ``wire_bytes`` transport
        #: accounting; counters survive close.
        self.sent_bytes = 0
        self.recv_bytes = 0

    def send(self, kind: str, **body: Any) -> None:
        """Encode and write one ``kind`` frame; raises on a dead peer."""
        from repro.exec.codec import encode_result

        blob = encode_result({"kind": kind, "body": body})
        if len(blob) > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"frame {kind!r} is {len(blob)} bytes; the limit is "
                f"{MAX_FRAME_BYTES}"
            )
        with self._send_lock:
            if self._closed:
                raise WireError("channel closed")
            try:
                self.sock.sendall(_HEADER.pack(len(blob)) + blob)
            except OSError as exc:
                raise WireError(f"peer gone while sending {kind!r}") from exc
            self.sent_bytes += _HEADER.size + len(blob)

    def recv(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Read one frame; ``None`` on EOF (peer closed or was killed)."""
        from repro.exec.codec import decode_result

        header = _recv_exact(self.sock, _HEADER.size)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"oversized frame ({length} bytes): corrupt peer")
        blob = _recv_exact(self.sock, length)
        if blob is None:
            return None
        self.recv_bytes += _HEADER.size + length
        frame = decode_result(blob)
        return frame["kind"], frame["body"]

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
