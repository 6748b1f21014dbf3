"""Unit tests for the datagram network: delivery, FIFO, loss, partitions."""

import contextlib

import pytest

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network, NodeNotRegistered
from repro.sim.kernel import Simulator


def make_net(sim, latency=None, loss_rate=0.0):
    return Network(sim, latency=latency or ConstantLatency(0.05),
                   loss_rate=loss_rate)


def collector(received):
    def handler(src, payload, size):
        received.append((src, payload, size))
    return handler


def test_basic_delivery_with_latency():
    sim = Simulator()
    net = make_net(sim)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.send("a", "b", "hello", size_bytes=10)
    sim.run_until_idle()
    assert received == [("a", "hello", 10)]
    assert sim.now == pytest.approx(0.05)


def test_send_from_unregistered_node_rejected():
    sim = Simulator()
    net = make_net(sim)
    net.register("b", collector([]))
    with pytest.raises(NodeNotRegistered):
        net.send("ghost", "b", "x")


def test_send_to_unregistered_node_counted_as_dropped():
    sim = Simulator()
    net = make_net(sim)
    net.register("a", collector([]))
    net.send("a", "nobody", "x")
    sim.run_until_idle()
    assert net.stats.datagrams_dropped_unregistered == 1
    assert net.stats.datagrams_delivered == 0


def test_reliable_is_fifo_per_pair_despite_jitter():
    sim = Simulator(seed=3)
    # High jitter would reorder datagrams; the reliable class must not.
    net = make_net(sim, latency=UniformLatency(0.01, 0.5, sim.rng.fork("lat")))
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    for index in range(20):
        net.send("a", "b", index, reliable=True)
    sim.run_until_idle()
    assert [payload for _, payload, _ in received] == list(range(20))


def test_unreliable_can_reorder():
    sim = Simulator(seed=5)
    net = make_net(sim, latency=UniformLatency(0.01, 0.5, sim.rng.fork("lat")))
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    for index in range(20):
        net.send("a", "b", index, reliable=False)
    sim.run_until_idle()
    order = [payload for _, payload, _ in received]
    assert sorted(order) == list(range(20))
    assert order != list(range(20)), "jittered UDP should reorder"


def test_loss_applies_only_to_unreliable():
    sim = Simulator(seed=1)
    net = make_net(sim, loss_rate=0.5)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    for _ in range(100):
        net.send("a", "b", "r", reliable=True)
    for _ in range(100):
        net.send("a", "b", "u", reliable=False)
    sim.run_until_idle()
    reliable = sum(1 for _, p, _ in received if p == "r")
    unreliable = sum(1 for _, p, _ in received if p == "u")
    assert reliable == 100
    assert 20 < unreliable < 80
    assert net.stats.datagrams_dropped_loss == 100 - unreliable


def test_invalid_loss_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, loss_rate=1.0)


def test_partition_blocks_and_heal_flushes_reliable():
    sim = Simulator()
    net = make_net(sim)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.partition(["a"], ["b"])
    net.send("a", "b", "queued", reliable=True)
    net.send("a", "b", "lost", reliable=False)
    sim.run_until_idle()
    assert received == []
    assert net.stats.datagrams_dropped_partition == 1
    net.heal()
    sim.run_until_idle()
    assert [p for _, p, _ in received] == ["queued"]


def test_heal_flush_is_deterministic_send_order():
    sim = Simulator()
    net = make_net(sim)
    received = []
    for name in "abcd":
        net.register(name, collector(received))
    net.partition(["a", "b"], ["c", "d"])
    # Interleave pairs; the flush must replay exactly this send order.
    sends = [("a", "c", 0), ("b", "d", 1), ("a", "d", 2), ("b", "c", 3),
             ("a", "c", 4)]
    for src, dst, payload in sends:
        net.send(src, dst, payload, reliable=True)
    sim.run_until_idle()
    assert received == []
    net.heal()
    sim.run_until_idle()
    assert [p for _, p, _ in received] == [0, 1, 2, 3, 4]


def test_partial_heal_flushes_only_reconnected_pairs():
    sim = Simulator()
    net = make_net(sim)
    received = []
    for name in "abc":
        net.register(name, collector(received))
    net.partition(["a"], ["b"])
    net.partition(["a"], ["c"])
    net.send("a", "b", "to-b", reliable=True)
    net.send("a", "c", "to-c", reliable=True)
    net.heal(["a"], ["b"])
    sim.run_until_idle()
    assert [p for _, p, _ in received] == ["to-b"]
    assert net.partitioned("a", "c")
    net.heal()
    sim.run_until_idle()
    assert [p for _, p, _ in received] == ["to-b", "to-c"]


def test_partial_heal_is_orientation_insensitive_and_validated():
    sim = Simulator()
    net = make_net(sim)
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.partition(["a"], ["b"])
    net.heal(["b"], ["a"])  # reversed sides still match
    assert not net.partitioned("a", "b")
    with pytest.raises(ValueError, match="no partition"):
        net.heal(["a"], ["b"])
    with pytest.raises(ValueError, match="both sides"):
        net.heal(side_a=["a"])


def test_unreliable_drop_counting_during_partition():
    sim = Simulator()
    net = make_net(sim, loss_rate=0.5)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.partition(["a"], ["b"])
    for _ in range(10):
        net.send("a", "b", "u", reliable=False)
    sim.run_until_idle()
    # Partition drops are counted as such -- never attributed to loss,
    # and never consuming a loss-RNG draw.
    assert net.stats.datagrams_dropped_partition == 10
    assert net.stats.datagrams_dropped_loss == 0
    assert received == []


def test_overlapping_partition_membership():
    sim = Simulator()
    net = make_net(sim)
    for name in "abcd":
        net.register(name, collector([]))
    net.partition(["a", "b"], ["c"])
    net.partition(["a"], ["c", "d"])
    assert net.partitioned("b", "c")      # first cut
    assert net.partitioned("a", "d")      # second cut
    assert not net.partitioned("b", "d")  # no cut separates these
    net.heal(["a", "b"], ["c"])
    assert net.partitioned("a", "c")      # second cut still separates
    assert not net.partitioned("b", "c")


def test_crash_drops_traffic_and_queued_entries():
    sim = Simulator()
    net = make_net(sim)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.partition(["a"], ["b"])
    net.send("a", "b", "queued", reliable=True)
    net.crash_node("b")  # drops the queued entry too
    assert net.stats.datagrams_dropped_crashed == 1
    net.send("a", "b", "while-down", reliable=True)
    assert net.stats.datagrams_dropped_crashed == 2
    net.heal()
    sim.run_until_idle()
    assert received == []
    net.restart_node("b")
    net.send("a", "b", "after-restart", reliable=True)
    sim.run_until_idle()
    assert [p for _, p, _ in received] == ["after-restart"]


def test_crash_drops_in_flight_datagrams():
    sim = Simulator()
    net = make_net(sim)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.send("a", "b", "in-flight", reliable=True)
    net.crash_node("b")  # dies before the 0.05s delivery fires
    sim.run_until_idle()
    assert received == []
    assert net.stats.datagrams_dropped_crashed == 1


def test_partitioned_is_symmetric():
    sim = Simulator()
    net = make_net(sim)
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.partition(["a"], ["b"])
    assert net.partitioned("a", "b")
    assert net.partitioned("b", "a")
    assert not net.partitioned("a", "a")


def test_multicast_skips_sender():
    sim = Simulator()
    net = make_net(sim)
    boxes = {name: [] for name in "abc"}
    for name in "abc":
        net.register(name, collector(boxes[name]))
    net.multicast("a", ["a", "b", "c"], "note")
    sim.run_until_idle()
    assert boxes["a"] == []
    assert len(boxes["b"]) == 1 and len(boxes["c"]) == 1


def test_byte_accounting():
    sim = Simulator()
    net = make_net(sim)
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", "x", size_bytes=100)
    net.send("a", "b", "y", size_bytes=50)
    sim.run_until_idle()
    assert net.stats.bytes_sent == 150
    assert net.stats.bytes_delivered == 150


def test_unregister_stops_delivery():
    sim = Simulator()
    net = make_net(sim)
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.send("a", "b", "one")
    net.unregister("b")
    sim.run_until_idle()
    assert received == []


# -- multicast is a loop of sends ----------------------------------------------


def _fanout_build(seed=11, latency=None):
    """A network with one sender, three receivers and one dead address."""
    sim = Simulator(seed=seed)
    net = make_net(sim, latency=latency)
    boxes = {name: [] for name in "abcd"}
    for name in "abcd":
        net.register(name, collector(boxes[name]))
    net.unregister("d")  # a destination that drops as unregistered
    return sim, net, boxes


def _fanout_drive(sim, net, use_multicast, reliable):
    dsts = ["a", "b", "c", "d"]
    for round_no in range(5):
        if use_multicast:
            net.multicast("a", dsts, ("note", round_no), size_bytes=40,
                          reliable=reliable)
        else:
            for dst in dsts:
                if dst != "a":
                    net.send("a", dst, ("note", round_no), size_bytes=40,
                             reliable=reliable)
    sim.run_until_idle()


@pytest.mark.parametrize("reliable", [True, False])
def test_multicast_equals_loop_of_sends(reliable):
    # Same seed, same latency jitter: multicast must produce the
    # identical stats, delivery schedule and FIFO clamps as the
    # equivalent loop of unicast sends.
    results = []
    for use_multicast in (False, True):
        sim, net, boxes = _fanout_build()
        if not reliable:
            net.latency = UniformLatency(0.01, 0.5, sim.rng.fork("lat"))
        _fanout_drive(sim, net, use_multicast, reliable)
        results.append((net.stats.as_dict(), boxes, sim.now,
                        dict(net._fifo_clock)))
    assert results[0] == results[1]


def test_multicast_equals_loop_of_sends_traced():
    # With a tracer installed the traced event streams must coincide
    # exactly, too.
    from repro.obs import trace_run

    streams = []
    for use_multicast in (False, True):
        sim, net, boxes = _fanout_build()
        with trace_run() as recorder:
            _fanout_drive(sim, net, use_multicast, reliable=True)
        net_events = [e for e in recorder.events
                      if e["kind"].startswith("net.")]
        streams.append((net_events, net.stats.as_dict(), boxes))
    assert streams[0] == streams[1]


def test_multicast_unregistered_source_rejected():
    sim, net, _ = _fanout_build()
    with pytest.raises(NodeNotRegistered):
        net.multicast("ghost", ["a", "b"], "x")


def test_multicast_to_only_self_is_a_noop():
    sim, net, _ = _fanout_build()
    net.multicast("a", ["a"], "x", size_bytes=10)
    assert net.stats.datagrams_sent == 0
    assert net.stats.bytes_sent == 0


# -- the model's one delay is asked at assignment, not per datagram ------------


def _counting(model_cls, *args):
    """A ``model_cls`` instance that records every :meth:`delay` call."""
    class Counting(model_cls):
        calls = 0

        def delay(self, src, dst, size_bytes):
            self.calls += 1
            return super().delay(src, dst, size_bytes)

    return Counting(*args)


def _send_ten(sim, net):
    """Ten reliable a -> b sends at one instant; returns ``(payload, time)``."""
    arrivals = []
    net.register("a", collector([]))
    net.register("b", lambda src, payload, size:
                 arrivals.append((payload, sim.now)))
    for index in range(10):
        net.send("a", "b", index, reliable=True)
    sim.run_until_idle()
    return arrivals


def test_fifo_clamp_with_memoized_latency():
    # A constant model's delay is asked once, at assignment: back-to-back
    # reliable sends at the same instant never call delay(), all land at
    # now + base, and the clamp keeps them FIFO.
    sim = Simulator()
    model = _counting(ConstantLatency, 0.05)
    net = make_net(sim, latency=model)
    arrivals = _send_ten(sim, net)
    assert model.calls == 0
    assert arrivals == [(index, 0.05) for index in range(10)]


def test_model_without_fixed_delay_is_asked_per_datagram():
    sim = Simulator()
    model = _counting(UniformLatency, 0.01, 0.5, sim.rng.fork("lat"))
    net = make_net(sim, latency=model)
    arrivals = _send_ten(sim, net)
    assert model.calls == 10
    # Jittered delays, yet the reliable stream is clamped into FIFO.
    assert [payload for payload, _ in arrivals] == list(range(10))
    times = [when for _, when in arrivals]
    assert times == sorted(times) and 0.01 <= times[0] <= times[-1] <= 0.5


def test_latency_setter_reasks_the_fixed_delay():
    sim = Simulator()
    constant = _counting(ConstantLatency, 0.05)
    net = make_net(sim, latency=constant)
    _send_ten(sim, net)
    jittered = _counting(UniformLatency, 0.01, 0.5, sim.rng.fork("lat"))
    net.latency = jittered
    for index in range(4):
        net.send("a", "b", index)
    assert (constant.calls, jittered.calls) == (0, 4)
    net.latency = constant
    net.send("a", "b", "again")
    assert (constant.calls, jittered.calls) == (0, 4)


def test_fifo_clamp_survives_heal_flush_with_memoized_latency():
    # Datagrams queued behind a partition flush on heal; the flushed
    # stream and everything sent after it must stay FIFO per pair even
    # though every delay is the model's one fixed delay.
    sim = Simulator()
    net = make_net(sim, latency=ConstantLatency(0.05))
    received = []
    net.register("a", collector([]))
    net.register("b", collector(received))
    net.send("a", "b", "before")
    net.partition(["a"], ["b"])
    for index in range(3):
        net.send("a", "b", ("queued", index), reliable=True)
    sim.run(until=1.0)
    net.heal()
    net.send("a", "b", "after", reliable=True)
    sim.run_until_idle()
    payloads = [payload for _, payload, _ in received]
    assert payloads == ["before", ("queued", 0), ("queued", 1),
                        ("queued", 2), "after"]
    # Arrival times were monotone (the clamp held across the flush).
    clamp = net._fifo_clock[("a", "b")]
    assert clamp >= 1.0 + 0.05


# -- the gates are data on one path: tracing and healed faults change nothing --


def _mixed_traffic(sim, net):
    """Unicast, unreliable, multicast and a dead address, over 200 rounds."""
    boxes = {name: [] for name in "abc"}
    for name in "abc":
        net.register(name, lambda src, payload, size, _box=boxes[name]:
                     _box.append((src, payload, size, sim.now)))
    for round_no in range(200):
        net.send("a", "b", ("u", round_no), size_bytes=32)
        net.send("a", "b", ("u2", round_no), size_bytes=32, reliable=False)
        net.multicast("b", ["a", "b", "c"], ("m", round_no), size_bytes=48)
        net.send("c", "missing", ("drop", round_no), size_bytes=8)
        if round_no % 50 == 0:
            sim.run_until_idle()
    sim.run_until_idle()
    return net.stats.as_dict(), boxes, sim.now


def test_installed_tracer_does_not_change_the_traffic():
    # A recorder arms every trace hook on the path: stats, delivery
    # order, arrival times and the final clock must equal the untraced
    # run's exactly.
    from repro.obs import trace_run

    outcomes = []
    for traced in (False, True):
        sim = Simulator(seed=11)
        net = make_net(sim, latency=ConstantLatency(0.002), loss_rate=0.1)
        with trace_run() if traced else contextlib.nullcontext():
            outcomes.append(_mixed_traffic(sim, net))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]["datagrams_dropped_loss"] > 0


def test_healed_network_carries_traffic_like_a_never_faulted_one():
    # A partition/heal (and crash/restart) cycle must leave nothing
    # behind: the traffic sent afterwards is counted, clamped and
    # delivered exactly as on a control network that never saw a fault.
    def post_fault_run(with_cycle):
        sim = Simulator(seed=13)
        net = make_net(sim, latency=ConstantLatency(0.002))
        received = []
        net.register("a", collector([]))
        net.register("b", lambda src, payload, size:
                     received.append((payload, sim.now)))
        if with_cycle:
            net.partition(["a"], ["b"])
            net.crash_node("a")
            net.restart_node("a")
            net.heal()
        before = net.stats.as_dict()
        for index in range(100):
            net.send("a", "b", index, size_bytes=16,
                     reliable=index % 3 != 0)
        sim.run_until_idle()
        delta = {key: value - before[key]
                 for key, value in net.stats.as_dict().items()}
        return delta, received

    faulted, control = post_fault_run(True), post_fault_run(False)
    assert faulted == control
    assert len(control[1]) == 100
