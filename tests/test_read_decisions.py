"""How a store decides a read: the traced decision, and what it builds.

A store admits each client read one of three ways -- ``pull-first``
(pull+immediate strategies fetch before serving), ``park`` (the replica
cannot serve yet) or ``serve`` -- and an installed ``repro.obs`` tracer
sees that decision as the ``repl.read`` event.  These tests pin the
decision sequence for all three, and that a read served on arrival
allocates no parked-read record.  A warm read is answered from the
store's reply table: it neither applies the invocation nor sizes a
message, a write still reaches the next read, and neither an error nor
a pull+immediate store ever enters the table.
"""

import collections

import pytest

from repro.coherence import session
from repro.comm import message
from repro.comm.invocation import MarshalledInvocation
from repro.comm.message import estimate_size
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs import trace_run
from repro.replication import client, read_path
from repro.replication.client import ReplicaError
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.report.grid import STRATEGIES
from repro.sim.kernel import Simulator
from repro.web.document import WebDocument
from repro.web.webobject import WebObject

from tests.conftest import resolve

PARTIAL = dict(coherence_transfer=CoherenceTransfer.PARTIAL,
               access_transfer=AccessTransfer.PARTIAL)


def build_site(policy):
    """A server, a cache and a reader on the cache."""
    sim = Simulator(seed=5)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy, pages={"p": "seed"},
                     designated_writer="master")
    site.create_server("server")
    site.create_cache("cache")
    reader = site.bind_browser("u", "user", read_store="cache")
    return sim, site, reader


def build(policy):
    sim, _, reader = build_site(policy)
    return sim, reader


def cache_table(site):
    """The cache's reply table."""
    return site.dso.stores["cache"].engine.reads.replies


def decisions(policy, warm=False):
    """The ``repl.read`` decisions of two sequential cache reads.

    ``warm`` first reads once untraced, so the cache holds the page.
    """
    sim, reader = build(policy)
    if warm:
        resolve(sim, reader.read_page("p"))
    with trace_run() as tracer:
        for _ in range(2):
            resolve(sim, reader.read_page("p"))
    return [(event["node"], event["decision"]) for event in tracer.events
            if event["kind"] == "repl.read"]


class TestTracedDecision:
    def test_pull_immediate_pulls_before_every_read(self):
        policy = ReplicationPolicy(
            transfer_initiative=TransferInitiative.PULL,
            transfer_instant=TransferInstant.IMMEDIATE, **PARTIAL)
        assert decisions(policy) == [("cache", "pull-first"),
                                     ("cache", "pull-first")]

    def test_cold_partial_cache_parks_then_serves_warm(self):
        policy = ReplicationPolicy(**PARTIAL)
        assert decisions(policy) == [("cache", "park"), ("cache", "serve")]

    def test_warm_cache_serves_on_arrival(self):
        policy = ReplicationPolicy(**PARTIAL)
        assert decisions(policy, warm=True) == [("cache", "serve"),
                                                ("cache", "serve")]


class TestWarmRead:
    """A warm read is answered from the store's reply table."""

    def test_repeat_read_neither_applies_nor_sizes(self, monkeypatch):
        sim, reader = build(ReplicationPolicy(**PARTIAL))
        for _ in range(2):  # fills the table and the client's caches
            resolve(sim, reader.read_page("p"))
        calls = collections.Counter()
        read_page = WebDocument.METHODS["read_page"]

        def counted_read(self, name):
            calls["read_page"] += 1
            return read_page(self, name)

        def counted_size(value):
            calls["estimate_size"] += 1
            return estimate_size(value)

        # The store's control calls the document's bound ``apply``,
        # which dispatches through this table.
        monkeypatch.setitem(WebDocument.METHODS, "read_page", counted_read)
        for module in (message, read_path, client, session):
            monkeypatch.setattr(module, "estimate_size", counted_size,
                                raising=False)
        assert resolve(sim, reader.read_page("p"))["content"] == "seed"
        assert calls == {}

    @pytest.mark.parametrize("name", ["push-update", "push-invalidate"])
    def test_read_after_a_write_returns_the_new_content(self, name):
        sim, site, reader = build_site(STRATEGIES[name].build_policy())
        master = site.bind_browser("m", "master", read_store="server")
        for _ in range(2):
            assert resolve(sim, reader.read_page("p"))["content"] == "seed"
        resolve(sim, master.write_page("p", "fresh"))
        assert resolve(sim, reader.read_page("p"))["content"] == "fresh"

    def test_missing_page_errors_every_time_and_is_never_tabled(self):
        sim, site, reader = build_site(ReplicationPolicy(**PARTIAL))
        resolve(sim, reader.read_page("p"))
        for _ in range(3):
            with pytest.raises(ReplicaError, match="nope"):
                resolve(sim, reader.read_page("nope"))
        assert [key.args for key in cache_table(site)] == [("p",)]

    def test_table_is_keyed_by_the_invocation_itself(self):
        sim, site, reader = build_site(ReplicationPolicy(**PARTIAL))
        pages = {"p": "seed", "q": "other"}
        resolve(sim, site.bind_browser("m", "master", read_store="server")
                .write_page("q", "other"))
        for page in pages:
            for _ in range(2):
                assert resolve(sim, reader.read_page(page))["content"] == \
                    pages[page]
        table = cache_table(site)
        assert {type(key) for key in table} == {MarshalledInvocation}
        assert sorted(key.args for key in table) == [("p",), ("q",)]

    def test_unhashable_argument_is_answered_with_an_error(self):
        sim, site, reader = build_site(ReplicationPolicy(**PARTIAL))
        with pytest.raises(ReplicaError):
            resolve(sim, reader.read_page(["p"]))
        assert cache_table(site) == {}

    def test_pull_immediate_traces_pull_first_and_never_tables(self):
        policy = ReplicationPolicy(
            transfer_initiative=TransferInitiative.PULL,
            transfer_instant=TransferInstant.IMMEDIATE, **PARTIAL)
        assert decisions(policy, warm=True) == [("cache", "pull-first"),
                                                ("cache", "pull-first")]
        sim, site, reader = build_site(policy)
        for _ in range(3):
            resolve(sim, reader.read_page("p"))
        assert cache_table(site) == {}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_read_served_on_arrival_builds_no_waiting_read(name, monkeypatch):
    sim, reader = build(STRATEGIES[name].build_policy())
    resolve(sim, reader.read_page("p"))  # warm the cache
    built = []

    class Counting(read_path.WaitingRead):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(read_path, "WaitingRead", Counting)
    with trace_run() as tracer:
        resolve(sim, reader.read_page("p"))
    served = [event["decision"] for event in tracer.events
              if event["kind"] == "repl.read"]
    assert served == ["serve"]
    assert built == []
