"""Tests for the wall-clock (threaded) runtime.

Kept fast: every wait is bounded and the loops are stopped in teardown.
"""

import os
import socket
import threading
import time

import pytest

from repro.coherence.models import SessionGuarantee
from repro.coherence.trace import TraceRecorder
from repro.comm.invocation import MarshalledInvocation
from repro.core.interfaces import Role
from repro.core.local_object import LocalObject
from repro.replication.client import ClientReplicationObject
from repro.replication.engine import StoreReplicationObject
from repro.replication.policy import ReplicationPolicy
from repro.runtime.live import BATCH, LiveLoop, LiveNetwork
from repro.sim.future import Future
from repro.sim.process import Delay, Process, ProcessKilled, WaitFor
from repro.web.document import WebDocument


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def loop():
    loop = LiveLoop(seed=1)
    loop.start()
    yield loop
    loop.stop()


class TestLiveLoop:
    def test_submit_runs_on_dispatcher(self, loop):
        seen = []
        loop.submit(seen.append, threading.current_thread().name)
        assert wait_for(lambda: len(seen) == 1)
        assert seen[0] != threading.current_thread().name or True
        # The callback ran on the dispatcher thread, not this one.
        ran_on = []
        loop.submit(lambda: ran_on.append(threading.current_thread().name))
        assert wait_for(lambda: ran_on)
        assert ran_on[0] == "repro-live-loop"

    def test_schedule_respects_delay(self, loop):
        stamps = []
        start = loop.now
        loop.schedule(0.05, lambda: stamps.append(loop.now))
        assert wait_for(lambda: stamps)
        assert stamps[0] - start >= 0.045

    def test_cancel_prevents_firing(self, loop):
        fired = []
        event = loop.schedule(0.05, fired.append, 1)
        event.cancel()
        time.sleep(0.15)
        assert fired == []

    def test_exception_does_not_kill_dispatcher(self, loop):
        def boom():
            raise RuntimeError("callback bug")

        survived = []
        loop.submit(boom)
        loop.schedule(0.02, survived.append, 1)
        assert wait_for(lambda: survived)

    def test_stop_joins_a_busy_dispatcher(self):
        # Regression: stop() used to give up after its idle timeout even
        # when the dispatcher was mid-callback, leaving a live thread
        # mutating protocol state behind a "stopped" runtime.
        busy_loop = LiveLoop(seed=1)
        busy_loop.start()
        entered = threading.Event()
        release = threading.Event()

        def long_callback():
            entered.set()
            release.wait(5.0)

        busy_loop.submit(long_callback)
        assert entered.wait(5.0), "callback must be running before stop()"
        thread = busy_loop._thread
        threading.Timer(0.3, release.set).start()
        # stop() must wait the callback out and join the thread.
        busy_loop.stop()
        assert release.is_set()
        assert not thread.is_alive(), (
            "stop() returned while the dispatcher thread was still running"
        )


class TestLiveLoopReaders:
    """The dispatcher as the one I/O thread: readers beside timers."""

    @pytest.fixture
    def pair(self):
        ours, theirs = socket.socketpair()
        yield ours, theirs
        ours.close()
        theirs.close()

    def test_events_run_in_when_then_seq_order(self):
        order = []
        ordered = LiveLoop(seed=1)
        ordered.schedule(0.04, order.append, "late")
        ordered.submit(order.append, "first")
        ordered.schedule(0.0, order.append, "second")
        ordered.schedule(0.02, order.append, "timer")
        ordered.submit(order.append, "third")
        ordered.start()
        try:
            assert wait_for(lambda: len(order) == 5)
        finally:
            ordered.stop()
        assert order == ["first", "second", "third", "timer", "late"]

    def test_work_queued_by_a_reader_callback_runs_after_it_in_order(
            self, loop, pair):
        ours, theirs = pair
        order = []

        def on_readable():
            order.append(("read", ours.recv(16)))
            loop.schedule(0.0, order.append, "scheduled")
            loop.submit(order.append, "submitted")
            order.append("returned")  # nothing ran re-entrantly

        loop.submit(order.append, "before")
        loop.add_reader(ours, on_readable)
        theirs.send(b"x")
        assert wait_for(lambda: len(order) == 5)
        assert order[0] == "before" or order[0] == ("read", b"x")
        assert order[-3:] == ["returned", "scheduled", "submitted"]
        loop.remove_reader(ours)
        theirs.send(b"y")
        time.sleep(0.05)
        assert len(order) == 5  # a removed reader is never called again

    def test_idle_is_false_while_a_reader_callback_runs(self, loop, pair):
        ours, theirs = pair
        entered, release = threading.Event(), threading.Event()

        def on_readable():
            ours.recv(16)
            entered.set()
            release.wait(5.0)

        loop.add_reader(ours, on_readable)
        assert wait_for(lambda: loop.idle)
        theirs.send(b"x")
        assert entered.wait(5.0)
        assert not loop.idle
        release.set()
        assert wait_for(lambda: loop.idle)

    def test_a_timer_storm_does_not_starve_a_readable_socket(
            self, loop, pair):
        ours, theirs = pair
        fired, fired_at_read = [], []
        hold = threading.Event()

        def on_readable():
            ours.recv(16)
            fired_at_read.append(len(fired))

        loop.add_reader(ours, on_readable)
        loop.submit(hold.wait, 5.0)  # park the dispatcher: all is due at once
        for index in range(10_000):
            loop.submit(fired.append, index)
        theirs.send(b"x")
        hold.set()
        assert wait_for(lambda: len(fired) == 10_000)
        assert fired == list(range(10_000))
        assert fired_at_read and fired_at_read[0] <= 2 * BATCH

    def test_a_chatty_socket_does_not_starve_timers(self, loop, pair):
        ours, theirs = pair
        reads, fired = [], []

        def on_readable():
            reads.append(ours.recv(1))
            if len(reads) == 1:
                loop.schedule(0.0, lambda: fired.append(len(reads)))
            theirs.send(b"x")  # readable again, for ever

        loop.add_reader(ours, on_readable)
        theirs.send(b"x")
        assert wait_for(lambda: fired)
        assert fired[0] <= 3  # the event ran within a poll or two
        loop.remove_reader(ours)

    def test_schedule_from_a_foreign_thread_wakes_a_sleeping_loop(self, loop):
        loop.schedule(30.0, lambda: None, daemon=True)  # a far-away timer
        delays = []
        for _ in range(5):
            assert wait_for(lambda: loop.idle)
            time.sleep(0.02)  # let the dispatcher go to sleep
            stamp = []
            started = time.monotonic()
            loop.submit(lambda: stamp.append(time.monotonic()))
            assert wait_for(lambda: stamp)
            delays.append(stamp[0] - started)
        assert min(delays) < 0.05, delays

    def test_stop_releases_the_selector_and_the_wake_sockets(self, pair):
        ours, theirs = pair
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            cycled = LiveLoop(seed=1)
            cycled.start()
            cycled.add_reader(ours, ours.recv, 16)
            cycled.stop()
            cycled.remove_reader(ours)  # after stop: a no-op
            cycled.add_reader(ours, ours.recv, 16)  # a stopped loop: ignored
        assert len(os.listdir("/proc/self/fd")) == before
        assert ours.fileno() >= 0  # the loop never closes what it reads

    def test_a_closed_reader_does_not_kill_the_dispatcher(self, loop, pair):
        ours, theirs = pair
        loop.add_reader(ours, lambda: None)
        ours.close()  # closed while registered: a caller's mistake
        loop.remove_reader(ours)
        survived = []
        loop.submit(survived.append, 1)
        assert wait_for(lambda: survived)
        other, peer = socket.socketpair()
        try:
            got = []
            loop.add_reader(other, lambda: got.append(other.recv(16)))
            peer.send(b"z")
            assert wait_for(lambda: got == [b"z"])
            loop.remove_reader(other)
        finally:
            other.close()
            peer.close()


class TestProcessOnLiveLoop:
    """The simulator's process driver, unchanged, in wall-clock time."""

    def test_delay_sleeps_in_wall_time_and_the_return_lands_on_done(
        self, loop
    ):
        stamps = []

        def body():
            stamps.append(time.monotonic())
            yield Delay(0.05)
            stamps.append(time.monotonic())
            return "slept"

        process = Process(loop, body())
        assert wait_for(lambda: process.done.done)
        assert stamps[1] - stamps[0] >= 0.045
        assert process.done.result() == "slept"
        assert not process.alive

    def test_wait_for_resumes_on_the_dispatcher_with_the_value(self, loop):
        future = Future()
        got = []

        def body():
            value = yield WaitFor(future)
            got.append((value, threading.current_thread().name))

        Process(loop, body())
        loop.schedule(0.02, future.set_result, "payload")
        assert wait_for(lambda: got)
        assert got == [("payload", "repro-live-loop")]

    def test_a_future_error_is_raised_inside_the_generator(self, loop):
        future = Future()
        caught = []

        def body():
            try:
                yield WaitFor(future)
            except ValueError as exc:
                caught.append(str(exc))
            return "recovered"

        process = Process(loop, body())
        loop.schedule(0.02, future.set_error, ValueError("boom"))
        assert wait_for(lambda: process.done.done)
        assert caught == ["boom"]
        assert process.done.result() == "recovered"

    def test_kill_fails_done_with_process_killed(self, loop):
        progress = []

        def body():
            progress.append("started")
            yield Delay(10.0)
            progress.append("never")

        process = Process(loop, body())
        assert wait_for(lambda: progress)
        loop.submit(process.kill)  # a process is only touched on its clock
        assert wait_for(lambda: process.done.done)
        assert progress == ["started"]
        with pytest.raises(ProcessKilled):
            process.done.result()


class TestLiveNetwork:
    def test_delivery(self, loop):
        net = LiveNetwork(loop, latency=0.0)
        received = []
        net.register("b", lambda src, payload, size: received.append(payload))
        net.send("a", "b", "hello")
        assert wait_for(lambda: received == ["hello"])

    def test_unregistered_destination_dropped(self, loop):
        net = LiveNetwork(loop)
        net.send("a", "nowhere", "x")
        time.sleep(0.05)  # nothing to assert but must not raise

    def test_partition_queues_reliable_and_heal_flushes(self, loop):
        net = LiveNetwork(loop, latency=0.0)
        received = []
        net.register("a", lambda src, payload, size: None)
        net.register("b", lambda src, payload, size: received.append(payload))
        loop.submit(net.partition, ["a"], ["b"])  # mutate on dispatcher
        assert wait_for(lambda: net.partitioned("a", "b"))
        net.send("a", "b", "queued", reliable=True)
        net.send("a", "b", "lost", reliable=False)
        time.sleep(0.05)
        assert received == []
        assert net.stats.datagrams_dropped_partition == 1
        loop.submit(net.heal)
        assert wait_for(lambda: received == ["queued"])
        assert net.stats.datagrams_delivered == 1

    def test_crash_drops_and_restart_resumes(self, loop):
        net = LiveNetwork(loop, latency=0.0)
        received = []
        net.register("b", lambda src, payload, size: received.append(payload))
        loop.submit(net.crash_node, "b")
        assert wait_for(lambda: net.is_crashed("b"))
        net.send("a", "b", "while-down")
        time.sleep(0.05)
        assert received == []
        assert net.stats.datagrams_dropped_crashed == 1
        loop.submit(net.restart_node, "b")
        assert wait_for(lambda: not net.is_crashed("b"))
        net.send("a", "b", "after-restart")
        assert wait_for(lambda: received == ["after-restart"])

    def test_stats_fields_match_the_sim_network(self, loop):
        import dataclasses

        from repro.net.network import Network, NetworkStats
        from repro.sim.kernel import Simulator

        live = LiveNetwork(loop)
        sim_net = Network(Simulator())
        fields = {f.name for f in dataclasses.fields(NetworkStats)}
        assert {f.name for f in dataclasses.fields(live.stats)} == fields
        assert {f.name for f in dataclasses.fields(sim_net.stats)} == fields
        assert {
            "datagrams_dropped_partition", "datagrams_dropped_crashed",
            "datagrams_dropped_loss",
        } <= fields


class TestLiveEndToEnd:
    def test_write_propagates_and_ryw_read_serves(self, loop):
        net = LiveNetwork(loop, latency=0.005)
        trace = TraceRecorder()
        policy = ReplicationPolicy()
        doc = WebDocument(pages={"p": "seed"}, clock=lambda: loop.now)
        server = LocalObject(loop, net, "server", Role.PERMANENT,
                             StoreReplicationObject(policy, Role.PERMANENT,
                                                    trace=trace),
                             semantics=doc)
        cache = LocalObject(loop, net, "cache", Role.CLIENT_INITIATED,
                            StoreReplicationObject(
                                policy, Role.CLIENT_INITIATED,
                                parent="server", trace=trace),
                            semantics=doc.fresh())
        server.replication.subscribe_child("cache")
        client = LocalObject(
            loop, net, "c-space", Role.CLIENT,
            ClientReplicationObject(
                "writer", read_store="cache", write_store="server",
                policy=policy,
                guarantees=(SessionGuarantee.READ_YOUR_WRITES,),
                trace=trace))

        write_holder = {}
        loop.submit(lambda: write_holder.update(f=client.control.invoke(
            MarshalledInvocation("write_page", ("p", "live"),
                                 read_only=False))))
        assert wait_for(lambda: "f" in write_holder and write_holder["f"].done)
        assert write_holder["f"].result().seqno == 1

        read_holder = {}
        loop.submit(lambda: read_holder.update(f=client.control.invoke(
            MarshalledInvocation("read_page", ("p",)))))
        assert wait_for(lambda: "f" in read_holder and read_holder["f"].done)
        assert read_holder["f"].result()["content"] == "live"
