"""The wire envelope and the hub's handshake against faulty peers.

A frame is ``4-byte length + pickle.dumps((kind, body), 5)``.  Whatever
bytes arrive -- truncated, oversized, bit-flipped, a valid pickle of the
wrong shape, split across reads or glued together -- a
:class:`~repro.runtime.wire.FrameChannel` may only ever produce whole
valid frames, a :class:`~repro.runtime.wire.WireError` or a clean EOF,
and a hub that meets such a peer drops that one connection and keeps
serving its real nodes.  The hub half runs against real node processes
under the hard wall-clock alarm of ``tests/test_faults_socket.py``.
"""

import os
import pickle
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.trace import ApplyEvent
from repro.core.ids import WriteId
from repro.comm.message import Message
from repro.replication.policy import ReplicationPolicy
from repro.runtime import wire
from repro.runtime.wire import FrameChannel, FrameTooLarge, WireError
from repro.transport.backend import LiveBackend
from repro.workload.scenarios import build_tree
from tests.test_faults_socket import SOAK_BUDGET, wall_clock_deadline


def real_frames():
    """A ``data``, a ``trace`` and a ``reply`` frame as the runtime sends them."""
    page = {"name": "page-0.html", "content": "c" * 1024,
            "content_type": "text/html", "version": 3, "last_modified": 1.5}
    message = Message("read_reply", {"result": page, "version": {"master": 3}},
                      reply_to=7)
    event = ApplyEvent(index=4, time=0.25, store="cache-0",
                       wid=WriteId("master", 3), global_seq=None,
                       deps={"master": 2}, applied_vc={"master": 3})
    return [
        ("data", {"src": "cache-0", "dst": "space-reader-0-0",
                  "payload": message, "size": message.payload_size(),
                  "reliable": True}),
        ("trace", {"event": event}),
        ("reply", {"call_id": 3, "result": {"master": 2}}),
    ]


def encoded(frames):
    """Each frame's bytes exactly as ``FrameChannel.send`` writes them."""
    left, right = socket.socketpair()
    try:
        channel = FrameChannel(left)
        blobs = []
        for kind, body in frames:
            channel.send(kind, **body)
            blobs.append(right.recv(1 << 20))
        return blobs
    finally:
        left.close()
        right.close()


FRAMES = real_frames()
BLOBS = encoded(FRAMES)
STREAM = b"".join(BLOBS)


def same(frames):
    """A comparable form of decoded frames (``Message`` has no ``==``)."""
    return [pickle.dumps(frame, 5) for frame in frames]


class ScriptedSocket:
    """A socket whose ``recv`` returns the scripted chunks, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def gettimeout(self):
        return None

    def recv(self, _size):
        return self.chunks.pop(0) if self.chunks else b""


def decode_all(chunks):
    """Every frame ``chunks`` decode to, and how the stream ended."""
    channel = FrameChannel(ScriptedSocket(chunks))
    frames = []
    while True:
        try:
            frame = channel.recv()
        except WireError:
            return frames, "error"
        if frame is None:
            return frames, "eof"
        kind, body = frame
        assert type(kind) is str and type(body) is dict
        frames.append(frame)


def chop(data, sizes):
    """``data`` cut into pieces of the given sizes (the rest in one)."""
    chunks = []
    for size in sizes:
        if not data:
            break
        chunks.append(data[:size])
        data = data[size:]
    return chunks + ([data] if data else [])


class TestEnvelope:
    def test_real_frames_round_trip(self):
        frames, end = decode_all([STREAM])
        assert end == "eof"
        assert [kind for kind, _ in frames] == ["data", "trace", "reply"]
        assert frames[0][1]["payload"].body["result"]["content"] == "c" * 1024
        assert frames[1][1]["event"] == FRAMES[1][1]["event"]
        assert frames[2][1] == FRAMES[2][1]

    def test_the_envelope_is_a_length_prefixed_pickle_of_kind_and_body(self):
        blob = BLOBS[2]
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4
        assert pickle.loads(blob[4:]) == FRAMES[2]

    def test_truncation_at_every_offset_is_whole_frames_then_clean_eof(self):
        ends = [len(BLOBS[0]), len(BLOBS[0]) + len(BLOBS[1]), len(STREAM)]
        whole = same(decode_all([STREAM])[0])
        for cut in range(len(STREAM) + 1):
            frames, end = decode_all([STREAM[:cut]])
            assert end == "eof", cut
            assert same(frames) == whole[:sum(cut >= e for e in ends)], cut

    def test_oversized_length_prefix_is_a_wire_error(self):
        for length in (wire.MAX_FRAME_BYTES + 1, 0xFFFFFFFF):
            frames, end = decode_all(
                [BLOBS[2] + struct.pack(">I", length) + b"x" * 64])
            assert (len(frames), end) == (1, "error")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(which=st.integers(0, 2), data=st.data())
    def test_single_byte_flips_yield_frames_errors_or_eof(self, which, data):
        blob = bytearray(BLOBS[which])
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        # A flipped frame between two good ones: nothing but whole valid
        # frames, a WireError or EOF may come out (decode_all asserts the
        # shape of each), and the frame before the damage always does.
        frames, _ = decode_all([BLOBS[2] + bytes(blob) + BLOBS[2]])
        assert same(frames[:1]) == same([FRAMES[2]])

    @pytest.mark.parametrize("value", [
        ["data", {}], ("data", {}, 1), ("data",), (7, {}), (b"data", {}),
        ("data", []), ("data", None), "data", None, 42,
    ])
    def test_valid_pickle_of_the_wrong_shape_is_a_wire_error(self, value):
        payload = pickle.dumps(value, 5)
        frames, end = decode_all(
            [BLOBS[2] + struct.pack(">I", len(payload)) + payload + BLOBS[2]])
        assert (len(frames), end) == (1, "error")

    def test_not_a_pickle_at_all_is_a_wire_error(self):
        for payload in (b"", b"\x00" * 9, b"RXC1 not a pickle", os.urandom(64)):
            frames, end = decode_all(
                [struct.pack(">I", len(payload)) + payload])
            assert (frames, end) == ([], "error")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 700), max_size=40))
    def test_any_split_decodes_like_one_frame_at_a_time(self, sizes):
        one_at_a_time = [decode_all([blob])[0][0] for blob in BLOBS * 3]
        frames, end = decode_all(chop(STREAM * 3, sizes))
        assert end == "eof"
        assert same(frames) == same(one_at_a_time)

    def test_many_frames_in_one_read(self):
        frames, end = decode_all([STREAM * 50])
        assert end == "eof" and len(frames) == 150
        assert same(frames) == same(decode_all([STREAM])[0]) * 50


class TestChannelModes:
    @pytest.fixture()
    def pair(self):
        left_sock, right_sock = socket.socketpair()
        left, right = FrameChannel(left_sock), FrameChannel(right_sock)
        yield left, right
        left.close()
        right.close()

    def test_recv_timeout_returns_none_and_keeps_partial_bytes(self, pair):
        left, right = pair
        left.sock.sendall(BLOBS[2][:5])
        started = time.monotonic()
        assert right.recv(timeout=0.2) is None
        assert 0.15 < time.monotonic() - started < 2.0
        left.sock.sendall(BLOBS[2][5:])
        assert right.recv(timeout=2.0) == FRAMES[2]

    def test_frame_too_large_leaves_a_blocking_channel_usable(
            self, pair, monkeypatch):
        left, right = pair
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 512)
        with pytest.raises(FrameTooLarge):
            left.send("data", payload="x" * 4096)
        left.send("data", payload="small")
        assert right.recv() == ("data", {"payload": "small"})

    def test_frame_too_large_leaves_an_attached_channel_usable(
            self, pair, monkeypatch):
        left, right = pair
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 512)
        backend = LiveBackend()
        backend.start()
        lost = []
        try:
            left.attach(backend.clock, lambda *frame: None, lost.append)
            with pytest.raises(FrameTooLarge):
                backend.call(lambda: left.send("data", payload="x" * 4096))
            backend.call(lambda: left.send("data", payload="small"))
            assert right.recv(timeout=5.0) == ("data", {"payload": "small"})
            assert lost == []
        finally:
            backend.stop()

    def test_attached_channel_reads_bursts_and_reports_the_loss_once(
            self, pair):
        left, right = pair
        backend = LiveBackend()
        backend.start()
        got, lost = [], []
        try:
            right.attach(backend.clock,
                         lambda _channel, kind, body: got.append((kind, body)),
                         lost.append)
            for chunk in chop(STREAM * 40, [1, 2, 3, 5, 700, 70_000]):
                left.sock.sendall(chunk)
            assert backend.wait_until(lambda: len(got) == 120, timeout=10.0)
            assert same(got) == same(decode_all([STREAM])[0]) * 40
            # A corrupt frame after good ones: the good ones are handled,
            # then the channel closes itself and says so, once.
            left.sock.sendall(BLOBS[2] + struct.pack(">I", 3) + b"\x00\x01\x02")
            assert backend.wait_until(lambda: lost, timeout=10.0)
            assert len(got) == 121 and lost == [right]
            assert left.sock.recv(1) == b""  # closed by the reader
        finally:
            backend.stop()

    def test_corked_sends_leave_as_one_write_in_order(self, pair):
        left, right = pair
        backend = LiveBackend()
        backend.start()
        try:
            left.attach(backend.clock, lambda *frame: None, lambda _: None)

            def burst():
                left.cork()
                for index in range(5):
                    left.send("trace", index=index)
                    assert not right.poll(0.0)  # nothing written yet
                left.uncork()
                left.send("reply", index=5)

            backend.call(burst)
            assert [right.recv(timeout=5.0)[1]["index"]
                    for _ in range(6)] == list(range(6))
        finally:
            backend.stop()


class FakePeer:
    """A hand-driven connection to a hub (anything with an ``address`` and
    a ``channel_for``: both hubs' ``FrameServer``), closed with the test."""

    def __init__(self, hub):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(hub.address)
        self.hub = hub
        self.channel = FrameChannel(sock)

    def hello(self, name):
        self.channel.send("hello", node=name, pid=os.getpid())
        kind, body = self.channel.recv(timeout=5.0)
        assert (kind, body["node"]) == ("welcome", name)
        deadline = time.monotonic() + 5.0
        while self.hub.channel_for(name) is None:  # attached a moment later
            assert time.monotonic() < deadline
            time.sleep(0.001)

    def raw(self, data):
        self.channel.sock.sendall(data)

    def closed_by_hub(self, timeout=5.0):
        """Whether the hub closes the connection within ``timeout``."""
        started = time.monotonic()
        try:
            silent = self.channel.recv(timeout=timeout) is None
        except WireError:
            return False
        return silent and time.monotonic() - started < timeout


@pytest.fixture(scope="module")
def deployment():
    with wall_clock_deadline(SOAK_BUDGET):
        deployment = build_tree(
            policy=ReplicationPolicy(), n_caches=1, n_readers_per_cache=1,
            pages={"index.html": "<h1>wire</h1>"}, seed=7,
            backend="live-socket",
        )
    pids = set(deployment.backend.hub.supervisor.live_pids().values())
    try:
        yield deployment
    finally:
        with wall_clock_deadline(SOAK_BUDGET):
            deployment.shutdown()
        for pid in pids:  # no node process outlives the module
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


@pytest.fixture()
def peer(deployment):
    peers = []

    def connect():
        peers.append(FakePeer(deployment.backend.hub))
        return peers[-1]

    with wall_clock_deadline(SOAK_BUDGET):
        yield connect
    for one in peers:
        one.channel.close()


def still_serving(deployment, content="<h1>wire</h1>"):
    """The real nodes answer: an RPC to each and a read through the cache."""
    hub = deployment.backend.hub
    reader = deployment.browsers["reader-0-0"]
    page = deployment.wait(deployment.call(reader.read_page, "index.html"),
                           timeout=10.0)
    return (page["content"] == content
            and all(hub.call(name, "ping") == "pong"
                    for name in deployment.site.dso.stores))


def frame_bytes(value):
    payload = pickle.dumps(value, 5)
    return struct.pack(">I", len(payload)) + payload


#: What a peer may say after ``hello`` that costs it its connection, on
#: either hub (``tests/test_exec_distributed.py`` replays the list).
DAMAGE = [
    struct.pack(">I", 9) + b"\x00" * 9,             # not a pickle
    struct.pack(">I", 0xFFFFFFF0) + b"x" * 16,      # oversized prefix
    BLOBS[0][:40],                                  # cut mid-frame
    frame_bytes(["data", {}]),                      # wrong shape
    frame_bytes((7, {})),
    frame_bytes(("data", [])),
    frame_bytes(("data", {"src": "ghost"})),        # malformed body
    frame_bytes(("reply", {})),
    frame_bytes(("trace", {})),
    frame_bytes(("hello", {"node": "ghost", "pid": 1})),  # second hello
    frame_bytes(("task", {"index": 1})),            # not the hub's
]


def inflict(ghost, damage):
    ghost.raw(damage)
    if damage == BLOBS[0][:40]:
        ghost.channel.sock.shutdown(socket.SHUT_WR)  # a truncated stream


class TestHubAgainstFaultyPeers:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damage_after_hello_drops_that_connection_only(
            self, deployment, peer, damage):
        hub = deployment.backend.hub
        ghost = peer()
        ghost.hello("ghost")
        inflict(ghost, damage)
        assert ghost.closed_by_hub()
        assert deployment.wait_until(
            lambda: hub.channel_for("ghost") is None, timeout=5.0)
        assert hub.registry.names() == ["cache-0", "server"]
        assert still_serving(deployment)

    @pytest.mark.parametrize("first", [
        frame_bytes(("data", {"src": "a", "dst": "server", "payload": None,
                              "size": 1, "reliable": True})),
        frame_bytes(("heartbeat", {"node": "cache-0"})),
        frame_bytes(("hello", {"pid": 1})),             # hello without a name
        frame_bytes(("hello", {"node": "x", "pid": "not a pid"})),
        struct.pack(">I", 5) + b"junk!",
    ])
    def test_anything_but_a_proper_hello_first_closes_the_connection(
            self, deployment, peer, first):
        hub = deployment.backend.hub
        before = (deployment.network.stats.datagrams_sent,
                  hub.registry.names())
        stranger = peer()
        stranger.raw(first)
        assert stranger.closed_by_hub()
        assert before == (deployment.network.stats.datagrams_sent,
                          hub.registry.names())
        assert still_serving(deployment)

    def test_a_heartbeat_beats_only_the_name_said_at_hello(
            self, deployment, peer):
        hub = deployment.backend.hub
        ghost = peer()
        ghost.hello("ghost")
        long_ago = time.monotonic() - 1.0
        hub.registry.register("victim", pid=1, now=long_ago)
        try:
            registered = hub.registry.lookup("ghost").last_beat
            for _ in range(5):
                ghost.channel.send("heartbeat", node="victim")
            assert deployment.wait_until(
                lambda: hub.registry.lookup("ghost").last_beat > registered,
                timeout=5.0)
            assert hub.registry.lookup("victim").last_beat == long_ago
        finally:
            hub.registry.deregister("victim")
            hub.registry.deregister("ghost")

    def test_a_silent_peer_is_closed_at_the_deadline_without_a_trace(
            self, deployment, peer, monkeypatch):
        hub = deployment.backend.hub
        monkeypatch.setattr(hub.server, "hello_timeout", 0.4)
        silent = peer()
        started = time.monotonic()
        assert silent.closed_by_hub(timeout=5.0)
        assert 0.3 < time.monotonic() - started < 3.0
        assert deployment.wait_until(
            lambda: not any(thread.name == "repro-hub-hello"
                            for thread in threading.enumerate()), timeout=5.0)
        # The reader set: the loop's wake socket and the two real nodes.
        assert deployment.wait_until(
            lambda: len(hub.network.loop._selector.get_map()) == 3,
            timeout=5.0)
        assert hub.registry.names() == ["cache-0", "server"]
        assert still_serving(deployment)

    def test_a_trickling_peer_cannot_stretch_the_deadline(
            self, deployment, peer, monkeypatch):
        hub = deployment.backend.hub
        monkeypatch.setattr(hub.server, "hello_timeout", 0.5)
        trickler = peer()
        hello = frame_bytes(("hello", {"node": "slow", "pid": 1}))
        started = time.monotonic()
        try:
            for index in range(len(hello) - 1):  # never the last byte
                trickler.raw(hello[index:index + 1])
                time.sleep(0.05)
                if time.monotonic() - started > 3.0:
                    break
        except OSError:
            pass  # the hub hung up on us mid-trickle: the point
        assert trickler.closed_by_hub(timeout=2.0)
        assert time.monotonic() - started < 3.0
        assert hub.channel_for("slow") is None


def test_silent_peers_neither_delay_real_nodes_nor_outlive_shutdown():
    from repro.transport.backend import SocketBackend

    with wall_clock_deadline(SOAK_BUDGET):
        others = set(threading.enumerate())  # the module deployment's
        backend = SocketBackend(seed=7, latency=0.0)
        hub = backend.hub
        silent = [FakePeer(hub) for _ in range(3)]
        try:
            started = time.monotonic()
            deployment = build_tree(
                policy=ReplicationPolicy(), n_caches=1, n_readers_per_cache=1,
                pages={"index.html": "<h1>x</h1>"}, seed=7, backend=backend)
            pids = set(hub.supervisor.live_pids().values())
            try:
                # Both nodes said hello long before any silent peer's
                # deadline, each of which still holds a handshake thread.
                assert time.monotonic() - started < hub.server.hello_timeout / 2
                assert sum(thread.name == "repro-hub-hello"
                           for thread in set(threading.enumerate()) - others
                           ) == 3
                assert hub.call("cache-0", "ping") == "pong"
            finally:
                deployment.shutdown()
            assert [thread.name
                    for thread in set(threading.enumerate()) - others
                    if thread.name.startswith("repro-")] == []
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            for one in silent:
                one.channel.close()
