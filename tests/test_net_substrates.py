"""The substrate contract: one datagram path, two clocks, same behaviour.

``LiveNetwork`` inherits ``send`` / ``multicast`` / ``_arrive`` and the
fault gate from ``Network`` and supplies only its clock, its arrival
scheduling and a lock around membership changes.  The scripted scenario below
therefore has to produce the *same* counters and the same per-destination
delivery order on both -- checked against one literal expectation, so a
substrate cannot drift without this file changing.

The threaded tests cover what only the wall-clock substrate can get
wrong.  ``send`` reads ``_faults_active`` without the fault lock, so a
sender thread racing the dispatcher's ``heal()`` must still land behind
the backlog that heal is flushing.  And an arrival reads the handler
table with one unlocked ``dict.get``, so a thread that registers and
unregisters the destination meanwhile must leave every datagram either
delivered or dropped as unregistered.
"""

import sys
import threading
import time

import pytest

from repro.runtime.live import LiveLoop, LiveNetwork
from repro.transport.backend import LiveBackend, SimBackend

NODES = ("a", "b", "c", "d")


def _scenario(backend):
    """Drive the scripted traffic; returns (stats dict, per-node payloads)."""
    net = backend.transport
    boxes = {name: [] for name in NODES}
    for name in NODES:
        net.register(name, lambda src, payload, size, _box=boxes[name]:
                     _box.append(payload))

    def step(*actions):
        """Run ``actions`` back to back on the protocol thread; settle."""
        backend.call(lambda: [action() for action in actions])
        backend.settle()

    send, multicast = net.send, net.multicast
    # Unicast, then a multicast that names the sender and a dead address.
    step(lambda: send("a", "b", "u1", 10),
         lambda: multicast("a", ["a", "b", "c", "ghost"], "m1", 20))
    # Two cuts.  Unreliable traffic across one drops; reliable traffic
    # queues per cut; an unseparated pair is unaffected.
    step(lambda: net.partition(["a"], ["b"]),
         lambda: net.partition(["a"], ["d"]),
         lambda: send("a", "b", "lost", 5, reliable=False),
         lambda: send("a", "b", "q1", 7),
         lambda: send("a", "d", "qd1", 7),
         lambda: send("a", "b", "q2", 7),
         lambda: send("a", "c", "direct", 7))
    # A partial heal flushes only the reconnected pair, in send order,
    # ahead of anything sent after it.
    step(lambda: net.heal(["b"], ["a"]),
         lambda: send("a", "b", "after-partial", 3))
    step(net.heal)
    # A crash drops queued entries, later sends and in-flight datagrams.
    step(lambda: net.partition(["a"], ["c"]),
         lambda: send("a", "c", "doomed-queued", 9),
         lambda: net.crash_node("c"),
         lambda: send("a", "c", "while-down", 9),
         lambda: send("a", "d", "doomed-in-flight", 9),
         lambda: net.crash_node("d"))
    step(net.heal,
         lambda: net.restart_node("c"),
         lambda: net.restart_node("d"),
         lambda: send("a", "c", "back", 4),
         lambda: send("a", "d", "back", 4))
    return net.stats.as_dict(), boxes


@pytest.mark.parametrize("make_backend", [
    lambda: SimBackend(latency=0.001),
    lambda: LiveBackend(latency=0.001),
], ids=["Network", "LiveNetwork"])
def test_scripted_scenario_reads_the_same_on_every_substrate(make_backend):
    backend = make_backend()
    backend.start()
    try:
        stats, boxes = _scenario(backend)
    finally:
        backend.stop()
    assert boxes == {
        "a": [],
        "b": ["u1", "m1", "q1", "q2", "after-partial"],
        "c": ["m1", "direct", "back"],
        "d": ["qd1", "back"],
    }
    assert stats == {
        "datagrams_sent": 15,
        "datagrams_delivered": 10,
        "datagrams_dropped_loss": 0,
        "datagrams_dropped_partition": 1,
        "datagrams_dropped_crashed": 3,
        "datagrams_dropped_unregistered": 1,
        "bytes_sent": 10 + 3 * 20 + 5 + 4 * 7 + 3 + 3 * 9 + 2 * 4,
        "bytes_delivered": 10 + 2 * 20 + 4 * 7 + 3 + 2 * 4,
        "frames_sent": 0,
        "frames_received": 0,
    }


def test_concurrent_sends_never_overtake_a_heal_flush():
    backlog, racers = 3000, 3000
    loop = LiveLoop(seed=1)
    net = LiveNetwork(loop, latency=0.0)
    received = []
    net.register("b", lambda src, payload, size: received.append(payload))
    net.partition(["a"], ["b"])  # loop not started: no dispatcher to race
    for index in range(backlog):
        net.send("a", "b", ("queued", index))

    healing = threading.Event()

    def race():
        healing.wait(5.0)
        for index in range(racers):
            net.send("a", "b", ("raced", index))

    def heal():
        healing.set()
        net.heal()

    sender = threading.Thread(target=race, name="racing-sender")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sender.start()
        loop.start()
        loop.submit(heal)
        sender.join(timeout=20.0)
        assert not sender.is_alive()
        deadline = time.monotonic() + 20.0
        while len(received) < backlog + racers:
            assert time.monotonic() < deadline, len(received)
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        loop.stop()
    # One (src, dst) pair, every send reliable: arrival order is send
    # order, so the whole backlog precedes the first racing datagram.
    assert received == (
        [("queued", index) for index in range(backlog)]
        + [("raced", index) for index in range(racers)]
    )


def test_arrivals_race_register_and_unregister_without_the_lock(monkeypatch):
    total = 5000
    errors = []

    def run(fn, args):
        try:
            fn(*args)
        except Exception as exc:  # what LiveLoop would print and swallow
            errors.append(exc)

    monkeypatch.setattr(LiveLoop, "_run", staticmethod(run))
    loop = LiveLoop(seed=1)
    net = LiveNetwork(loop, latency=0.0)
    received = []

    def handler(src, payload, size):
        received.append(payload)

    sending = threading.Event()

    def churn():
        while not sending.is_set():
            net.register("b", handler)
            net.unregister("b")

    def send():
        for index in range(total):
            net.send("a", "b", index, 1)
        sending.set()

    threads = [threading.Thread(target=churn, name="membership-churn"),
               threading.Thread(target=send, name="sender")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        loop.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive()
        # Every send has been scheduled: idle means every arrival ran.
        deadline = time.monotonic() + 20.0
        while not loop.idle:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        loop.stop()
    stats = net.stats
    assert errors == []
    assert stats.datagrams_sent == total
    assert stats.datagrams_sent == (stats.datagrams_delivered
                                    + stats.datagrams_dropped_unregistered)
    assert len(received) == stats.datagrams_delivered
