"""One I/O thread per process on ``live-socket``, against real processes.

After ``hello`` the :class:`~repro.runtime.live.LiveLoop` dispatcher is
the only thread that reads or writes a node socket, in the hub and in
every node.  A thread that does both must never block in a write: the
burst tests below hang for ever on a reactor that writes with a blocking
``sendall`` (hub stuck writing to ``server``, ``server`` stuck writing to
the hub, nobody reading).  Also here: RPCs issued *from* the dispatcher,
a node that stops reading, the thread census on both sides, and that
build/shutdown cycles give every thread and file descriptor back.

Everything runs under the hard wall-clock alarm and the no-leaked-process
check of ``tests/test_faults_socket.py``.
"""

import os
import signal
import threading
import time

import pytest

from repro.replication.policy import ReplicationPolicy
from repro.transport.backend import SocketBackend
from repro.workload.scenarios import build_tree
from tests.test_faults_socket import SOAK_BUDGET, wall_clock_deadline
from tests.test_runtime_wire import still_serving

SEED = 7


def build(n_caches=2, **backend_kwargs):
    return build_tree(
        policy=ReplicationPolicy(),
        n_caches=n_caches,
        n_readers_per_cache=1,
        pages={"index.html": "<h1>reactor</h1>"},
        seed=SEED,
        backend=SocketBackend(seed=SEED, latency=0.0, **backend_kwargs),
    )


@pytest.fixture()
def deployment(request):
    with wall_clock_deadline(SOAK_BUDGET):
        deployment = build(**getattr(request, "param", {}))
        pids = set(deployment.backend.hub.supervisor.live_pids().values())
        try:
            yield deployment
        finally:
            for pid in pids:  # a test may have SIGSTOPped one
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            deployment.shutdown()
    for pid in pids:  # no node process outlives the test
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def repro_threads():
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name.startswith("repro-"))


class TestWriteBursts:
    """Both ends bursting at each other: nobody may block in a write."""

    @pytest.mark.parametrize("count", [400, 3000])
    def test_unawaited_16k_writes_complete_and_converge(
            self, deployment, count):
        master = deployment.browsers["master"]
        body = "b" * 16384

        def burst():
            return [master.write_page("index.html", f"{body}{index}")
                    for index in range(count)]

        futures = deployment.call(burst)  # one dispatcher event issues all
        for future in futures:
            deployment.wait(future, timeout=60.0)
        assert deployment.wait_until(
            lambda: all(engine.version() == {"master": count}
                        for engine in deployment.engines),
            timeout=60.0,
        )
        states = deployment.site.store_states()
        assert {state["index.html"]["content"] for state in states.values()} \
            == {f"{body}{count - 1}"}
        stats = deployment.network.stats
        assert stats.datagrams_dropped_unregistered == 0
        assert deployment.backend.hub.registry.names() == [
            "cache-0", "cache-1", "server"]


class TestCallsFromTheDispatcher:
    def test_hub_call_inside_a_dispatcher_call_returns(self, deployment):
        hub = deployment.backend.hub
        on = []

        def from_the_dispatcher():
            on.append(threading.current_thread().name)
            return (hub.call("server", "ping"),
                    deployment.server.engine.version(),
                    [engine.counters() for engine in deployment.engines])

        started = time.monotonic()
        pong, version, counters = deployment.call(from_the_dispatcher)
        assert on == ["repro-live-loop"]
        assert (pong, version, len(counters)) == ("pong", {}, 3)
        assert time.monotonic() - started < hub.call_timeout / 2

    def test_frames_read_while_pumping_keep_their_order(self, deployment):
        # The write's acknowledgement and trace events arrive on the very
        # channel a dispatcher-side call is pumping: they are routed
        # inline, in order, and the call still gets its own reply.
        master = deployment.browsers["master"]
        hub = deployment.backend.hub

        def write_then_call():
            future = master.write_page("index.html", "<h1>pumped</h1>")
            return future, [hub.call("server", "version") for _ in range(20)]

        future, versions = deployment.call(write_then_call)
        deployment.wait(future, timeout=10.0)
        assert versions[-1] in ({}, {"master": 1})
        assert deployment.wait_until(
            lambda: all(engine.version() == {"master": 1}
                        for engine in deployment.engines), timeout=10.0)
        indices = [event.index for event in deployment.site.trace.events]
        assert indices == sorted(set(indices))  # strictly increasing

    def test_a_call_to_a_node_that_dies_mid_call_fails_promptly(
            self, deployment):
        from repro.runtime.socket import SocketRuntimeError

        hub = deployment.backend.hub
        pid = hub.node_pid("cache-1")

        def kill_then_call():
            os.kill(pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(SocketRuntimeError):
                hub.call("cache-1", "ping")
            return time.monotonic() - started

        assert deployment.call(kill_then_call) < hub.call_timeout / 2
        assert hub.channel_for("cache-1") is None


class TestStalledNode:
    @pytest.mark.parametrize("deployment", [{"call_timeout": 1.0}],
                             indirect=True)
    def test_a_node_that_stops_reading_is_dropped_others_keep_serving(
            self, deployment):
        hub = deployment.backend.hub
        master = deployment.browsers["master"]
        reader = deployment.browsers["reader-0-0"]
        os.kill(hub.node_pid("cache-1"), signal.SIGSTOP)
        body = "b" * 16384

        def burst():
            return [master.write_page("index.html", f"{body}{index}")
                    for index in range(200)]

        started = time.monotonic()
        for future in deployment.call(burst):
            deployment.wait(future, timeout=30.0)
        # The pushes to cache-1 filled its socket; after call_timeout
        # without progress the hub gave the connection up, not itself.
        assert deployment.wait_until(
            lambda: hub.channel_for("cache-1") is None, timeout=10.0)
        assert time.monotonic() - started < 10.0
        assert deployment.network.stats.datagrams_dropped_unregistered > 0
        for _ in range(20):
            page = deployment.wait(
                deployment.call(reader.read_page, "index.html"), timeout=5.0)
            assert page["content"] == f"{body}199"
        assert hub.call("cache-0", "ping") == "pong"
        assert hub.registry.names() == ["cache-0", "server"]


def all_serving(deployment):
    """Every node is still attached, answers, and serves a read."""
    return (deployment.backend.hub.registry.names()
            == sorted(deployment.site.dso.stores)
            and still_serving(deployment, "<h1>reactor</h1>"))


class TestLiveness:
    """Heartbeat expiry has teeth, and only a dispatcher that could have
    read the beats may judge them missing."""

    @pytest.mark.parametrize("deployment", [{"call_timeout": 4.0}],
                             indirect=True)
    def test_a_silent_node_is_dropped_at_the_ttl_and_stalls_nobody(
            self, deployment):
        hub = deployment.backend.hub
        master = deployment.browsers["master"]
        reader = deployment.browsers["reader-0-0"]
        hub.registry.ttl = 1.0
        os.kill(hub.node_pid("cache-1"), signal.SIGSTOP)
        stopped = time.monotonic()
        assert deployment.wait_until(
            lambda: hub.channel_for("cache-1") is None, timeout=5.0)
        assert time.monotonic() - stopped < 3.0
        assert hub.registry.names() == ["cache-0", "server"]  # the one map
        body = "b" * 16384

        def burst():
            return [master.write_page("index.html", f"{body}{index}")
                    for index in range(200)]

        # Pushes toward the silent node drop as unregistered at once;
        # while its connection was kept they filled its socket and held
        # the dispatcher -- and every unrelated read -- for call_timeout.
        futures = deployment.call(burst)
        slowest = 0.0
        for _ in range(30):
            started = time.monotonic()
            deployment.wait(deployment.call(reader.read_page, "index.html"),
                            timeout=15.0)
            slowest = max(slowest, time.monotonic() - started)
        for future in futures:
            deployment.wait(future, timeout=30.0)
        assert slowest < 1.0
        assert deployment.network.stats.datagrams_dropped_unregistered > 0
        assert hub.call("cache-0", "ping") == "pong"

    def test_a_held_dispatcher_judges_nobody(self, deployment):
        hub = deployment.backend.hub
        hub.registry.ttl = 1.0
        time.sleep(0.6)  # the timer has picked the short period up
        # Four beats per node arrive while nobody reads them: the round
        # that is due meanwhile runs late and must not call that silence.
        deployment.call(time.sleep, 1.5)
        time.sleep(0.6)  # two on-time rounds later
        assert all_serving(deployment)

    def test_a_boot_longer_than_the_ttl_costs_no_other_node(
            self, deployment, monkeypatch):
        hub = deployment.backend.hub
        hub.registry.ttl = 1.0
        spawn = hub.supervisor.spawn

        def slow_spawn(name, restore=False):
            time.sleep(1.5)  # longer than the TTL, whatever the machine
            return spawn(name, restore=restore)

        monkeypatch.setattr(hub.supervisor, "spawn", slow_spawn)
        deployment.call(deployment.network.crash_node, "cache-1")
        # restart_node blocks the dispatcher until the node says hello.
        deployment.call(deployment.network.restart_node, "cache-1")
        time.sleep(0.6)
        assert all_serving(deployment)


class TestThreadCensus:
    @pytest.mark.parametrize("deployment", [{"n_caches": 1}, {"n_caches": 4}],
                             indirect=True)
    def test_hub_threads_do_not_grow_with_nodes_and_a_node_has_one(
            self, deployment):
        hub = deployment.backend.hub
        master = deployment.browsers["master"]
        deployment.wait(deployment.call(
            master.write_page, "index.html", "<h1>census</h1>"), timeout=10.0)
        # Hub: dispatcher + accept, whatever the node count (handshake
        # threads are gone once every node has said hello).
        assert deployment.wait_until(
            lambda: repro_threads() == ["repro-hub-accept",
                                        "repro-live-loop"], timeout=5.0)
        # Node: the dispatcher -- the one thread that touches engine,
        # journal and socket -- and the main thread parked until ``bye``.
        for name in deployment.site.dso.stores:
            tasks = os.listdir(f"/proc/{hub.node_pid(name)}/task")
            assert len(tasks) == 2, (name, tasks)


def census():
    return threading.active_count(), len(os.listdir("/proc/self/fd"))


class TestTeardown:
    def test_live_cycles_return_every_thread_and_fd(self):
        def cycle():
            deployment = build_tree(
                policy=ReplicationPolicy(), n_caches=2, n_readers_per_cache=1,
                pages={"index.html": "<h1>cycle</h1>"}, seed=SEED,
                backend="live",
            )
            try:
                reader = deployment.browsers["reader-1-0"]
                deployment.wait(deployment.call(reader.read_page,
                                                "index.html"), timeout=10.0)
            finally:
                deployment.shutdown()
            assert repro_threads() == []

        cycle()  # warm-up: lazy imports may open files of their own
        before = census()
        for _ in range(20):
            cycle()
        assert census() == before

    def test_live_socket_cycles_return_every_thread_and_fd(self):
        def cycle():
            with wall_clock_deadline(SOAK_BUDGET):
                deployment = build(n_caches=1)
                pids = set(deployment.backend.hub.supervisor
                           .live_pids().values())
                try:
                    reader = deployment.browsers["reader-0-0"]
                    deployment.wait(deployment.call(
                        reader.read_page, "index.html"), timeout=10.0)
                    # A crash/restart cycle exercises kill_node's close.
                    deployment.call(deployment.network.crash_node, "cache-0")
                    deployment.call(deployment.network.restart_node,
                                    "cache-0")
                    pids.add(deployment.backend.hub.node_pid("cache-0"))
                finally:
                    deployment.shutdown()
            assert repro_threads() == []
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

        cycle()
        before = census()
        for _ in range(3):
            cycle()
        assert census() == before
