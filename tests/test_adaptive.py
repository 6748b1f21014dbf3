"""Tests for the self-adaptive policy controller (paper §5 future work)."""

import dataclasses

import pytest

from repro.coherence.models import CoherenceModel
from repro.experiments.adaptive import run_adaptive
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication.adaptive import (
    AdaptationEvent,
    AdaptiveConfig,
    AdaptivePolicyController,
)
from repro.replication.policy import (
    CoherenceTransfer,
    PolicyError,
    Propagation,
    ReplicationPolicy,
    TransferInstant,
)
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject

from tests.conftest import resolve


def build(config=None, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.02))
    policy = ReplicationPolicy(coherence_transfer=CoherenceTransfer.PARTIAL)
    site = WebObject(sim, net, policy=policy, pages={"p": "seed"},
                     designated_writer="master")
    server = site.create_server("server")
    site.create_cache("cache")
    controller = AdaptivePolicyController(
        dso=site.dso,
        primary=server.engine,
        schedule=lambda d, fn, daemon=False: sim.schedule(d, fn,
                                                          daemon=daemon),
        now=lambda: sim.now,
        config=config or AdaptiveConfig(interval=1.0, lazy_at_writes=3),
        observers=[store.engine for store in site.stores()],
    )
    controller.start()
    master = site.bind_browser("m", "master", read_store="server",
                               write_store="server")
    reader = site.bind_browser("u", "user", read_store="cache")
    return sim, site, controller, master, reader


def test_write_burst_switches_to_lazy_and_invalidate():
    sim, site, controller, master, reader = build()
    for index in range(6):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 1.5)
    assert site.policy.transfer_instant is TransferInstant.LAZY
    assert site.policy.propagation is Propagation.INVALIDATE
    parameters = {e.parameter for e in controller.events}
    assert parameters == {"propagation", "transfer_instant"}


def test_quiet_period_returns_to_immediate():
    sim, site, controller, master, reader = build()
    for index in range(6):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 1.5)
    assert site.policy.transfer_instant is TransferInstant.LAZY
    sim.run(until=sim.now + 3.0)  # silence: several empty windows
    assert site.policy.transfer_instant is TransferInstant.IMMEDIATE


def test_read_dominance_restores_update_propagation():
    sim, site, controller, master, reader = build()
    for index in range(6):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 1.5)
    assert site.policy.propagation is Propagation.INVALIDATE
    # A read-heavy window flips it back: one write, many reads.
    resolve(sim, master.write_page("p", "final"))
    for _ in range(6):
        resolve(sim, reader.read_page("p"))
    sim.run(until=sim.now + 1.5)
    assert site.policy.propagation is Propagation.UPDATE


def test_stop_halts_adaptation():
    sim, site, controller, master, reader = build()
    controller.stop()
    for index in range(6):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 3.0)
    assert controller.events == []
    assert site.policy.transfer_instant is TransferInstant.IMMEDIATE


def test_events_carry_window_counts():
    sim, site, controller, master, reader = build()
    for index in range(5):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 1.5)
    assert controller.events
    event = controller.events[0]
    assert isinstance(event, AdaptationEvent)
    assert event.writes >= 3
    assert event.time > 0


def test_x8_adaptive_beats_static_on_traffic():
    result = run_adaptive(seed=1, edits=16, reads=8, n_caches=3)
    measured = result.data["measured"]
    static = measured["static (update/immediate)"]["metrics"]
    adaptive = measured["adaptive"]["metrics"]
    assert adaptive.traffic.coherence_messages < \
        static.traffic.coherence_messages
    assert measured["adaptive"]["events"], "the controller must adapt"


def test_each_adaptation_swaps_one_new_policy_everywhere(monkeypatch):
    sim, site, controller, master, reader = build()
    original = site.policy
    before = dataclasses.replace(original)
    swapped = []
    set_policy = site.dso.set_policy

    def checked(policy):
        set_policy(policy)
        assert site.policy is policy
        for store in site.stores():
            assert store.engine.policy is policy
        for client in site.dso.clients:
            assert client.replication.policy is policy
        swapped.append(policy)

    monkeypatch.setattr(site.dso, "set_policy", checked)
    for index in range(6):
        resolve(sim, master.write_page("p", f"rev {index}"))
    sim.run(until=sim.now + 4.0)
    assert len(swapped) == len(controller.events) >= 3
    assert len({id(policy) for policy in swapped + [original]}) == \
        len(swapped) + 1
    # The policy the object started with is a value: never edited.
    assert original == before


def test_policy_is_frozen():
    policy = ReplicationPolicy()
    for field in dataclasses.fields(policy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(policy, field.name, getattr(policy, field.name))


def test_set_policy_refuses_a_different_model():
    sim, site, controller, master, reader = build()
    current = site.policy
    other = dataclasses.replace(current, model=CoherenceModel.CAUSAL)
    with pytest.raises(PolicyError):
        site.dso.set_policy(other)
    assert site.policy is current
    for store in site.stores():
        assert store.engine.policy is current


def test_x8_point_literals():
    result = run_adaptive()
    measured = result.data["measured"]
    static = measured["static (update/immediate)"]
    adaptive = measured["adaptive"]
    assert (static["metrics"].traffic.bytes_sent,
            static["metrics"].traffic.coherence_messages,
            len(static["events"])) == (62570, 88, 0)
    assert (adaptive["metrics"].traffic.bytes_sent,
            adaptive["metrics"].traffic.coherence_messages) == (50586, 48)
    assert [event.time for event in adaptive["events"]] == [
        2.0, 2.0, 12.0, 12.0]
