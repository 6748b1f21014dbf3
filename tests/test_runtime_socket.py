"""Unit and integration coverage for the socket runtime pieces.

The cross-backend behaviour (signatures, fault parity) is pinned by
``test_parity_sim_live.py`` and ``test_faults_socket.py``; this module
covers the runtime substrate itself: the registry's heartbeat liveness,
pickle frames over a real socketpair, connect retry/backoff against a
late listener, checkpoint round-trips, and -- critically -- that a full
deployment teardown leaves no orphan or zombie node processes (checked
with plain ``os.kill(pid, 0)`` / ``os.waitpid``, no psutil).
"""

import dataclasses
import json
import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.coherence.models import CoherenceModel
from repro.replication.policy import (
    PolicyError,
    Propagation,
    ReplicationPolicy,
    TransferInstant,
)
from repro.runtime.registry import Registry
from repro.runtime.wire import (
    FrameChannel,
    WireError,
    connect_with_backoff,
    format_address,
    listen,
    parse_address,
)
from repro.workload.scenarios import build_tree


class TestRegistry:
    """Liveness bookkeeping with injected clocks (no sleeping)."""

    def test_register_and_lookup(self):
        registry = Registry(ttl=1.0)
        entry = registry.register("cache-0", pid=4242, now=10.0)
        assert registry.lookup("cache-0") is entry
        assert (entry.pid, entry.conn, entry.last_beat) == (4242, None, 10.0)
        assert registry.lookup("nope") is None

    def test_reregister_replaces_entry(self):
        registry = Registry(ttl=1.0)
        registry.register("cache-0", pid=100, now=0.0)
        replacement = registry.register("cache-0", pid=200, now=5.0)
        assert registry.lookup("cache-0") is replacement
        assert registry.lookup("cache-0").pid == 200

    def test_beat_keeps_node_alive(self):
        registry = Registry(ttl=1.0)
        registry.register("server", pid=1, now=0.0)
        assert registry.alive("server", now=0.9)
        assert registry.beat("server", now=0.9)
        assert registry.alive("server", now=1.8)

    def test_silence_past_ttl_reads_dead(self):
        registry = Registry(ttl=1.0)
        registry.register("server", pid=1, now=0.0)
        assert not registry.alive("server", now=1.5)
        assert not registry.beat("unknown", now=0.0)
        assert not registry.alive("unknown", now=0.0)

    def test_only_stale_entries_read_dead(self):
        registry = Registry(ttl=1.0)
        registry.register("server", pid=1, now=0.0)
        registry.register("cache-0", pid=2, now=0.0)
        registry.beat("server", now=2.0)
        assert [name for name in registry.names()
                if not registry.alive(name, now=2.5)] == ["cache-0"]
        # Reading dead removes nothing: the frame server's liveness
        # timer is what drops (and deregisters) a silent peer.
        assert registry.names() == ["cache-0", "server"]

    def test_deregister_returns_entry(self):
        registry = Registry(ttl=1.0)
        registry.register("server", pid=1, now=0.0)
        assert registry.deregister("server").name == "server"
        assert registry.deregister("server") is None


class TestFrameChannel:
    """Codec frames over a real (socketpair) byte stream."""

    @pytest.fixture()
    def pair(self):
        left_sock, right_sock = socket.socketpair()
        left, right = FrameChannel(left_sock), FrameChannel(right_sock)
        yield left, right
        left.close()
        right.close()

    def test_round_trip_preserves_kind_and_body(self, pair):
        left, right = pair
        left.send("data", src="server", dst="cache-0",
                  payload={"keys": ["a", "b"], "blob": b"\x00\xff"},
                  size=17, reliable=True)
        kind, body = right.recv()
        assert kind == "data"
        assert body == {
            "src": "server", "dst": "cache-0",
            "payload": {"keys": ["a", "b"], "blob": b"\x00\xff"},
            "size": 17, "reliable": True,
        }

    def test_frames_arrive_in_send_order(self, pair):
        left, right = pair
        for index in range(20):
            left.send("heartbeat", node="server", index=index)
        received = [right.recv()[1]["index"] for _ in range(20)]
        assert received == list(range(20))

    def test_recv_returns_none_on_peer_close(self, pair):
        left, right = pair
        left.close()
        assert right.recv() is None

    def test_send_to_closed_peer_raises_wire_error(self, pair):
        left, right = pair
        right.close()
        with pytest.raises(WireError):
            for _ in range(64):  # first sends may land in the OS buffer
                left.send("heartbeat", node="server")

    def test_oversized_length_prefix_rejected(self, pair):
        left, right = pair
        left.sock.sendall(struct.pack(">I", 1 << 31))
        with pytest.raises(WireError):
            right.recv()

    def test_concurrent_senders_never_interleave_frames(self, pair):
        left, right = pair
        per_thread = 50

        def sender(tag):
            for index in range(per_thread):
                left.send("trace", tag=tag, index=index)

        threads = [
            threading.Thread(target=sender, args=(tag,)) for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        seen = {tag: [] for tag in range(4)}
        for _ in range(4 * per_thread):
            _, body = right.recv()
            seen[body["tag"]].append(body["index"])
        for thread in threads:
            thread.join()
        # Frames may interleave across threads but never corrupt; each
        # sender's own frames keep their order.
        assert all(seen[tag] == list(range(per_thread)) for tag in seen)


class TestAddresses:
    def test_unix_and_tcp_round_trip(self):
        assert parse_address(format_address("/tmp/x/hub.sock")) == (
            "/tmp/x/hub.sock"
        )
        assert parse_address(format_address(("127.0.0.1", 4711))) == (
            "127.0.0.1", 4711,
        )

    def test_unparseable_address_raises(self):
        for bad in ("", "unix:", "tcp:nohost", "gopher:x"):
            with pytest.raises(ValueError):
                parse_address(bad)


class TestConnectWithBackoff:
    def test_retries_until_listener_appears(self, tmp_path):
        address = str(tmp_path / "late.sock")
        attempts = []
        accepted = []

        def late_listener():
            time.sleep(0.15)
            server = listen(address)
            conn, _ = server.accept()
            accepted.append(conn)
            server.close()

        thread = threading.Thread(target=late_listener)
        thread.start()
        sock = connect_with_backoff(
            address, timeout=5.0, base_delay=0.01, max_delay=0.05,
            on_attempt=attempts.append,
        )
        thread.join()
        try:
            assert len(attempts) > 1, "listener was late; expected retries"
            assert attempts == list(range(1, len(attempts) + 1))
            assert accepted, "the eventual connection must reach accept()"
        finally:
            sock.close()
            for conn in accepted:
                conn.close()

    def test_deadline_expiry_raises_wire_error(self, tmp_path):
        address = str(tmp_path / "never.sock")
        with pytest.raises(WireError):
            connect_with_backoff(address, timeout=0.2, base_delay=0.01)


class TestCheckpointRoundTrip:
    """Engine checkpoints are the node's crash-restart survival format."""

    def test_checkpoint_restores_version_and_counters(self):
        from repro.replication.engine import StoreReplicationObject

        deployment = build_tree(
            policy=ReplicationPolicy(),
            n_caches=1,
            n_readers_per_cache=1,
            pages={"index.html": "<h1>ckpt</h1>"},
            seed=3,
        )
        master = deployment.browsers["master"]
        for revision in range(2):
            future = deployment.call(
                master.write_page, "index.html", f"<h1>{revision}</h1>"
            )
            deployment.wait(future, timeout=10.0)
        deployment.settle()
        engine = deployment.server.engine
        checkpoint = engine.checkpoint()

        # The node pickles checkpoints (protocol 5) into its snapshot
        # file; the round trip through bytes must be lossless.
        checkpoint = pickle.loads(pickle.dumps(checkpoint, 5))

        clone = StoreReplicationObject(
            policy=deployment.site.policy,
            role=engine.role,
            parent=None,
        )
        clone.restore(checkpoint)
        assert clone.version() == engine.version()
        assert clone.checkpoint() == engine.checkpoint()


class TestRunProfileOnLiveBackends:
    """The declarative workload driver on wall-clock substrates."""

    PAGES = {"a.html": "a" * 64, "b.html": "b" * 64}

    @classmethod
    def tiny_profile(cls):
        from repro.workload.profiles import WorkloadProfile

        # Think times in wall-clock seconds: the whole run takes ~0.05 s.
        return WorkloadProfile(
            name="tiny", writes=2, reads_per_client=3,
            write_interval=0.01, read_think=0.005,
        )

    @pytest.mark.parametrize("backend,policy", [
        ("live", ReplicationPolicy()),
        ("live-socket", ReplicationPolicy()),
        # Drains the final lazy window in wall-clock time.
        ("live", ReplicationPolicy(transfer_instant=TransferInstant.LAZY,
                                   lazy_interval=0.05)),
    ], ids=["live", "live-socket", "live-lazy"])
    def test_profile_runs_and_converges(self, backend, policy):
        from repro.workload.profiles import run_profile

        deployment = run_profile(
            policy, self.tiny_profile(), n_caches=1, seed=11,
            pages=self.PAGES, backend=backend,
        )
        try:
            versions = {
                address: store.version()
                for address, store in deployment.site.dso.stores.items()
            }
            assert all(
                version == {"master": 2} for version in versions.values()
            ), versions
            states = deployment.site.store_states()
            assert len({json.dumps(s, sort_keys=True, default=str)
                        for s in states.values()}) == 1
        finally:
            deployment.shutdown()

    def test_a_failed_live_run_is_shut_down_before_it_raises(
        self, monkeypatch
    ):
        from repro.transport.backend import BackendError, LiveBackend
        from repro.workload import profiles

        monkeypatch.setattr(profiles, "LIVE_RUN_TIMEOUT", 0.0)
        backend = LiveBackend(seed=11)
        with pytest.raises(BackendError, match="unfinished"):
            profiles.run_profile(
                ReplicationPolicy(), self.tiny_profile(), n_caches=1,
                seed=11, pages=self.PAGES, backend=backend,
            )
        assert backend.clock._thread is None  # the dispatcher was stopped

    def test_virtual_time_features_rejected_on_live(self):
        from repro.transport.backend import BackendError
        from repro.workload.profiles import run_profile

        for kwargs in ({"horizon": 5.0}, {"fault_plan": "partition-heal"}):
            with pytest.raises(BackendError):
                run_profile(
                    ReplicationPolicy(), self.tiny_profile(),
                    n_caches=1, seed=1, backend="live", **kwargs,
                )


class TestSocketDeploymentLifecycle:
    """A real multi-process deployment: spawn, drive, tear down clean."""

    def test_stores_run_as_live_registered_processes(self):
        deployment = build_tree(
            policy=ReplicationPolicy(),
            n_caches=1,
            n_readers_per_cache=1,
            pages={"index.html": "<h1>proc</h1>"},
            seed=5,
            backend="live-socket",
        )
        try:
            hub = deployment.backend.hub
            store_names = sorted(deployment.site.dso.stores)
            assert hub.registry.names() == store_names
            pids = {name: hub.node_pid(name) for name in store_names}
            own_pid = os.getpid()
            for name, pid in pids.items():
                assert pid != own_pid, f"{name} must be a separate process"
                os.kill(pid, 0)  # raises if the process were gone
                assert hub.registry.alive(name, now=time.monotonic()), name
        finally:
            deployment.shutdown()

    def test_set_policy_refuses_stores_in_other_processes(self):
        # A node keeps the policy it was spawned with, so swapping it here
        # would leave the clients stamping for a policy no store runs.
        deployment = build_tree(ReplicationPolicy(), n_caches=1,
                                backend="live-socket", seed=7)
        try:
            dso = deployment.site.dso
            current = dso.policy
            for change in ({"model": CoherenceModel.CAUSAL},
                           {"propagation": Propagation.INVALIDATE}):
                with pytest.raises(PolicyError, match="cache-0, server"):
                    dso.set_policy(dataclasses.replace(current, **change))
                assert dso.policy is current
                assert dso.clients
                for client in dso.clients:
                    assert client.replication.policy is current
        finally:
            deployment.shutdown()

    def test_shutdown_leaves_no_orphans_or_zombies(self):
        deployment = build_tree(
            policy=ReplicationPolicy(),
            n_caches=2,
            n_readers_per_cache=1,
            pages={"index.html": "<h1>clean</h1>"},
            seed=5,
            backend="live-socket",
        )
        hub = deployment.backend.hub
        run_dir = hub.run_dir
        pids = {
            name: hub.node_pid(name)
            for name in sorted(deployment.site.dso.stores)
        }
        master = deployment.browsers["master"]
        future = deployment.call(master.write_page, "index.html", "<h1>x</h1>")
        deployment.wait(future, timeout=10.0)
        deployment.shutdown()
        for name, pid in pids.items():
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # No zombies either: the supervisor already wait()ed on every
        # node, so a targeted waitpid has no child left to reap.
        for pid in pids.values():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert not os.path.exists(run_dir), "hub must remove its run dir"
        assert hub.registry.names() == []
        assert _wait_no_hub_threads() == []


def _wait_no_hub_threads(timeout=2.0):
    """Names of ``repro-hub-*`` threads still alive after ``timeout``.

    The accept and handshake threads are joined by ``shutdown`` itself.
    """
    deadline = time.monotonic() + timeout
    while True:
        alive = [thread.name for thread in threading.enumerate()
                 if thread.name.startswith("repro-hub-")]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.01)


class TestSocketHubWithoutNodes:
    """Hub-side behaviour that needs no node process."""

    def test_stop_leaves_no_hub_thread_behind(self):
        # The acceptor sits in accept() with no connection ever coming:
        # exactly the thread a bare listener.close() used to strand.
        from repro.transport.backend import SocketBackend

        backend = SocketBackend()
        backend.start()
        assert any(thread.name == "repro-hub-accept"
                   for thread in threading.enumerate())
        backend.stop()
        assert _wait_no_hub_threads(timeout=0.0) == []

    def test_failed_frame_write_is_a_drop_not_a_delivery(self):
        # The node's channel is still attached when the datagram lands
        # but closes under the write (here: already closed).  That is an
        # unregistered destination, never a delivered datagram.
        from repro.obs import tracer as obs
        from repro.transport.backend import SocketBackend

        backend = SocketBackend(latency=0.0)
        ours, theirs = socket.socketpair()
        channel = FrameChannel(ours)
        try:
            net, hub = backend.transport, backend.hub
            net.register_remote("store")
            hub.registry.register("store", pid=1, conn=channel,
                                  now=time.monotonic())
            channel.close()
            backend.start()
            with obs.trace_run() as tracer:
                net.send("client", "store", {"k": 1}, size_bytes=12)
                backend.settle()
            stats = net.stats
            assert stats.datagrams_sent == 1
            assert (stats.datagrams_delivered, stats.bytes_delivered) == (0, 0)
            assert stats.datagrams_dropped_unregistered == 1
            kinds = [(event["kind"], event.get("reason"))
                     for event in tracer.events
                     if event["kind"].startswith("net.")]
            assert kinds == [("net.send", None),
                             ("net.drop", "unregistered")]
        finally:
            backend.stop()
            theirs.close()
