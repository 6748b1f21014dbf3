"""Integration tests for propagation mechanics: push/pull, immediate/lazy,
update/invalidate/notify, partial/full transfers."""

import pytest

from repro.coherence.models import CoherenceModel
from repro.coherence.trace import ApplyEvent
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    Propagation,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject

from tests.conftest import resolve


def build(policy, pages=None, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy,
                     pages=pages or {"p.html": "seed"},
                     designated_writer="master")
    server = site.create_server("server")
    cache = site.create_cache("cache")
    master = site.bind_browser("m", "master", read_store="server",
                               write_store="server")
    return sim, site, server, cache, master


def test_immediate_push_reaches_cache_without_reads():
    policy = ReplicationPolicy(coherence_transfer=CoherenceTransfer.PARTIAL)
    sim, site, server, cache, master = build(policy)
    resolve(sim, master.write_page("p.html", "v1"))
    sim.run_until_idle()
    assert cache.version() == {"master": 1}
    assert cache.state()["p.html"]["content"] == "v1"


def test_lazy_push_aggregates_one_flush_per_window():
    policy = ReplicationPolicy(
        transfer_instant=TransferInstant.LAZY,
        lazy_interval=5.0,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    )
    sim, site, server, cache, master = build(policy)
    futures = [master.append_to_page("p.html", f"+{index}")
               for index in range(4)]
    sim.run(until=2.0)  # acks land; the flush window has not closed yet
    assert all(f.done for f in futures)
    assert cache.version() == {}, "nothing pushed before the window closes"
    sim.run(until=8.0)
    assert cache.version() == {"master": 4}
    # All four writes arrived in a single aggregated update message.
    assert server.engine.counters["tx:update"] == 1


def test_applied_batch_traces_its_one_stamp_uncopied_and_unmutated():
    """Every record of an applied batch shares the batch's stamp in the
    trace; no later apply, at that store or another, changes a traced
    vector."""
    policy = ReplicationPolicy(
        transfer_instant=TransferInstant.LAZY,
        lazy_interval=5.0,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    )
    sim, site, server, cache, master = build(policy)
    for index in range(4):
        master.append_to_page("p.html", f"+{index}")
    sim.run(until=8.0)
    applies = [e for e in site.trace.events if isinstance(e, ApplyEvent)]
    at_server = [e.applied_vc for e in applies if e.store == "server"]
    at_cache = [e.applied_vc for e in applies if e.store == "cache"]
    # One write per batch at the server, so one stamp per record there.
    assert at_server == [{"master": n} for n in (1, 2, 3, 4)]
    assert len({id(vc) for vc in at_server}) == 4
    # The cache applies the one aggregated push as a single batch.
    assert at_cache == [{"master": 4}] * 4
    assert all(vc is at_cache[0] for vc in at_cache)
    assert server.engine.as_of["p.html"].view() is at_server[-1]
    master.append_to_page("p.html", "+4")
    sim.run(until=16.0)
    assert cache.version() == {"master": 5}
    assert at_server == [{"master": n} for n in (1, 2, 3, 4)]
    assert at_cache == [{"master": 4}] * 4


def test_lazy_fifo_aggregation_compresses_superseded_writes():
    policy = ReplicationPolicy(
        model=CoherenceModel.FIFO,
        transfer_instant=TransferInstant.LAZY,
        lazy_interval=5.0,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    )
    sim, site, server, cache, master = build(policy)
    futures = [master.write_page("p.html", f"rev {index}")
               for index in range(5)]
    sim.run(until=8.0)
    assert all(f.done for f in futures)
    assert cache.state()["p.html"]["content"] == "rev 4"
    # The aggregated batch kept only the last overwrite.
    assert cache.engine.counters["rx:update"] == 1
    applies = [e for e in site.trace.events
               if type(e).__name__ == "ApplyEvent" and e.store == "cache"]
    assert len(applies) == 1


def test_full_coherence_transfer_ships_snapshots():
    policy = ReplicationPolicy(coherence_transfer=CoherenceTransfer.FULL)
    sim, site, server, cache, master = build(
        policy, pages={"a": "1", "b": "2"})
    resolve(sim, master.write_page("a", "new"))
    sim.run_until_idle()
    assert server.engine.counters["tx:update_full"] == 1
    # The snapshot brings the whole document, not just the touched page.
    assert set(cache.state()) == {"a", "b"}


def test_invalidate_marks_and_refetches_on_access():
    policy = ReplicationPolicy(
        propagation=Propagation.INVALIDATE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        object_outdate_reaction=OutdateReaction.WAIT,
    )
    sim, site, server, cache, master = build(policy)
    reader = site.dso  # warm the cache first
    user = site.dso
    browser = site.bind_browser("u", "user", read_store="cache")
    resolve(sim, browser.read_page("p.html"))
    assert cache.state()["p.html"]["content"] == "seed"
    resolve(sim, master.write_page("p.html", "v2"))
    sim.run_until_idle()
    assert "p.html" in cache.engine.invalid_keys
    # Content refetched only on next access.
    page = resolve(sim, browser.read_page("p.html"))
    assert page["content"] == "v2"
    assert "p.html" not in cache.engine.invalid_keys


def test_invalidate_with_demand_reaction_refetches_immediately():
    policy = ReplicationPolicy(
        propagation=Propagation.INVALIDATE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        object_outdate_reaction=OutdateReaction.DEMAND,
    )
    sim, site, server, cache, master = build(policy)
    browser = site.bind_browser("u", "user", read_store="cache")
    resolve(sim, browser.read_page("p.html"))
    resolve(sim, master.write_page("p.html", "v2"))
    sim.run_until_idle()
    assert cache.state()["p.html"]["content"] == "v2"
    assert "p.html" not in cache.engine.invalid_keys


def test_notification_only_marks_known_remote():
    policy = ReplicationPolicy(
        coherence_transfer=CoherenceTransfer.NOTIFICATION,
        object_outdate_reaction=OutdateReaction.WAIT,
    )
    sim, site, server, cache, master = build(policy)
    resolve(sim, master.write_page("p.html", "v2"))
    sim.run_until_idle()
    assert server.engine.counters["tx:notify"] == 1
    assert cache.version() == {}
    assert cache.engine.known_remote.get("master") == 1


def test_notification_with_demand_reaction_pulls_content():
    policy = ReplicationPolicy(
        coherence_transfer=CoherenceTransfer.NOTIFICATION,
        object_outdate_reaction=OutdateReaction.DEMAND,
    )
    sim, site, server, cache, master = build(policy)
    resolve(sim, master.write_page("p.html", "v2"))
    sim.run_until_idle()
    assert cache.version() == {"master": 1}


def test_pull_on_access_validates_every_read():
    policy = ReplicationPolicy(
        transfer_initiative=TransferInitiative.PULL,
        transfer_instant=TransferInstant.IMMEDIATE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    )
    sim, site, server, cache, master = build(policy)
    browser = site.bind_browser("u", "user", read_store="cache")
    resolve(sim, master.write_page("p.html", "v1"))
    assert cache.version() == {}, "pull mode must not push"
    page = resolve(sim, browser.read_page("p.html"))
    assert page["content"] == "v1"
    demands_after_first = cache.engine.counters["tx:demand"]
    resolve(sim, browser.read_page("p.html"))
    assert cache.engine.counters["tx:demand"] > demands_after_first, \
        "every access revalidates upstream"


def test_periodic_pull_catches_up_on_interval():
    policy = ReplicationPolicy(
        transfer_initiative=TransferInitiative.PULL,
        transfer_instant=TransferInstant.LAZY,
        lazy_interval=3.0,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    )
    sim, site, server, cache, master = build(policy)
    resolve(sim, master.write_page("p.html", "v1"))
    assert cache.version() == {}
    sim.run(until=sim.now + 3.5)
    assert cache.version() == {"master": 1}


def test_mirror_syncs_full_state_at_creation():
    policy = ReplicationPolicy(coherence_transfer=CoherenceTransfer.PARTIAL)
    sim = Simulator(seed=2)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy,
                     pages={"a": "1", "b": "2"}, designated_writer="m")
    site.create_server("server")
    mirror = site.create_mirror("mirror")
    sim.run_until_idle()
    assert set(mirror.state()) == {"a", "b"}


def test_cascade_through_mirror_to_cache():
    policy = ReplicationPolicy(coherence_transfer=CoherenceTransfer.PARTIAL)
    sim = Simulator(seed=2)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy, pages={"p": "seed"},
                     designated_writer="master")
    site.create_server("server")
    mirror = site.create_mirror("mirror")
    cache = site.create_cache("cache", parent="mirror")
    master = site.bind_browser("m", "master", read_store="server")
    sim.run_until_idle()
    resolve(sim, master.write_page("p", "v1"))
    sim.run_until_idle()
    assert mirror.state()["p"]["content"] == "v1"
    assert cache.state()["p"]["content"] == "v1"
    # The cache heard it from the mirror, not the server.
    assert mirror.engine.counters["tx:update"] >= 1


def test_push_update_fanout_is_one_message_with_unchanged_accounting(
        monkeypatch):
    """A write pushed to N caches is one ``Message`` and one ``multicast``;
    every count the network and the replicas keep is what the per-target
    loop produced (the literals were recorded at the commit that still
    had it: seed 1, one 2-byte write to ``p.html``, four caches)."""
    from repro.comm.endpoint import CommunicationObject

    fanouts = []
    multicast = CommunicationObject.multicast

    def spy(comm, dsts, message):
        fanouts.append((comm.address, list(dsts), message))
        multicast(comm, dsts, message)

    monkeypatch.setattr(CommunicationObject, "multicast", spy)
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(
        sim, net,
        policy=ReplicationPolicy(coherence_transfer=CoherenceTransfer.PARTIAL),
        pages={"p.html": "seed"}, designated_writer="master")
    server = site.create_server("server")
    caches = [site.create_cache(f"cache-{index}") for index in range(4)]
    master = site.bind_browser("m", "master", read_store="server",
                               write_store="server")
    comm = server.engine.control.comm
    resolve(sim, master.write_page("p.html", "v1"))
    sim.run_until_idle()

    [(address, targets, message)] = fanouts
    assert address == "server"
    assert targets == [cache.address for cache in caches]
    assert message.payload_size() == 255
    assert server.engine.counters["tx:update"] == 4
    # The acknowledgement (124 bytes) is the server's only other send.
    assert (comm.messages_sent, comm.bytes_sent) == (5, 4 * 255 + 124)
    for cache in caches:
        assert cache.version() == {"master": 1}
        assert cache.state()["p.html"]["content"] == "v1"
        assert dict(cache.engine.counters) == {"rx:update": 1}
    # Write + ack + four updates, nothing dropped.
    stats = net.stats
    assert (stats.datagrams_sent, stats.datagrams_delivered) == (6, 6)
    assert (stats.bytes_sent, stats.bytes_delivered) == (1470, 1470)
