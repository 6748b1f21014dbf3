"""Tests for the fault injector: timed and stepped execution, windows."""

import pytest

from repro.faults.catalog import FAULT_PLANS, build_fault_plan, get_fault_plan
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashNode,
    FaultPlan,
    Heal,
    LossBurst,
    Partition,
    RestartNode,
)
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng


def make_net(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    received = []
    for name in ("a", "b"):
        net.register(
            name,
            lambda src, payload, size: received.append((src, payload)),
        )
    return net, received


PLAN = FaultPlan(events=(
    Partition(at=1.0, side_a=("a",), side_b=("b",)),
    Heal(at=2.0, side_a=("a",), side_b=("b",)),
    CrashNode(at=3.0, node="b"),
    RestartNode(at=4.0, node="b"),
))


def test_timed_plan_executes_at_plan_times():
    sim = Simulator()
    net, received = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    sim.run(until=1.5)
    assert net.partitioned("a", "b")
    net.send("a", "b", "queued")
    sim.run(until=2.5)
    assert not net.partitioned("a", "b")
    assert [p for _, p in received] == ["queued"]
    sim.run(until=3.5)
    assert net.is_crashed("b")
    sim.run_until_idle()
    assert not net.is_crashed("b")
    assert [round(t, 6) for t, _ in injector.applied] == [1.0, 2.0, 3.0, 4.0]


def test_timed_events_keep_a_drain_run_alive():
    # Non-daemon scheduling: run_until_idle must not stop before the
    # heal fires, or queued traffic would leak past the end of a sweep.
    sim = Simulator()
    net, received = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    net.send("a", "b", "early")
    sim.run_until_idle()
    assert sim.now >= 4.0
    assert [p for _, p in received] == ["early"]


def test_stepped_mode_applies_in_order_and_ignores_times():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    assert isinstance(injector.step(), Partition)
    assert net.partitioned("a", "b")
    assert isinstance(injector.step(), Heal)
    assert isinstance(injector.step(), CrashNode)
    assert isinstance(injector.step(), RestartNode)
    assert injector.step() is None
    assert injector.exhausted


def test_step_after_start_rejected():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    with pytest.raises(RuntimeError, match="after start"):
        injector.step()


def test_loss_burst_sets_and_restores_rate():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, FaultPlan(events=(
        LossBurst(at=1.0, duration=2.0, loss_rate=0.5),
    )))
    injector.start()
    sim.run(until=1.5)
    assert net.loss_rate == 0.5
    sim.run_until_idle()
    assert net.loss_rate == 0.0


def test_cancel_stops_pending_events():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    sim.run(until=1.5)
    injector.cancel()
    sim.run_until_idle()
    # The heal never fired: the partition survives.
    assert net.partitioned("a", "b")
    assert len(injector.applied) == 1


def test_cancel_after_some_events_fired_keeps_the_live_count_exact():
    # cancel() walks every handle, fired ones included; only the events
    # still pending may come off the clock's live count.
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    done = []
    sim.schedule_at(10.0, done.append, "work")
    sim.run(until=2.5)
    assert len(injector.applied) == 2
    assert sim.live_pending == 3  # crash, restart, the work item
    injector.cancel()
    assert sim.live_pending == 1
    sim.run_until_idle()
    assert done == ["work"]
    assert sim.now == 10.0
    assert sim.live_pending == 0


def test_partition_and_outage_windows():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, PLAN)
    injector.start()
    sim.run_until_idle()
    assert injector.recovery_marks() == [2.0, 4.0]
    assert injector.cut_windows(until=10.0) == [
        (1.0, 2.0, (frozenset({"a"}), frozenset({"b"}))),
    ]


def test_cut_windows_track_partial_heals_independently():
    sim = Simulator()
    net, _ = make_net(sim)
    first = (("a",), ("b",))
    second = (("a",), ("c",))
    injector = FaultInjector(sim, net, FaultPlan(events=(
        Partition(at=1.0, side_a=first[0], side_b=first[1]),
        Partition(at=2.0, side_a=second[0], side_b=second[1]),
        Heal(at=3.0, side_a=first[1], side_b=first[0]),  # reversed sides
        Heal(at=5.0),
    )))
    injector.start()
    sim.run_until_idle()
    assert injector.cut_windows(until=10.0) == [
        (1.0, 3.0, (frozenset({"a"}), frozenset({"b"}))),
        (2.0, 5.0, (frozenset({"a"}), frozenset({"c"}))),
    ]


def test_open_windows_clip_at_until():
    sim = Simulator()
    net, _ = make_net(sim)
    injector = FaultInjector(sim, net, FaultPlan(events=(
        Partition(at=1.0, side_a=("a",), side_b=("b",)),
        CrashNode(at=2.0, node="b"),
    )))
    injector.start()
    sim.run_until_idle()
    assert injector.cut_windows(until=5.0) == [
        (1.0, 5.0, (frozenset({"a"}), frozenset({"b"}))),
    ]
    assert injector.recovery_marks() == []


def test_catalog_plans_build_for_any_tree():
    nodes = ["server", "cache-0", "cache-1", "cache-2"]
    for name in FAULT_PLANS:
        plan = build_fault_plan(name, nodes, SeededRng(1))
        assert plan == build_fault_plan(name, nodes, SeededRng(1)), name
        for event in plan.events:
            if isinstance(event, (CrashNode, RestartNode)):
                assert event.node != "server", (
                    f"{name}: the permanent store must never go down"
                )


def test_catalog_unknown_name_lists_registry():
    with pytest.raises(KeyError, match="registered:"):
        get_fault_plan("nope")
