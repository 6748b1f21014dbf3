"""How a store decides a read: the traced decision, and what it builds.

A store admits each client read one of three ways -- ``pull-first``
(pull+immediate strategies fetch before serving), ``park`` (the replica
cannot serve yet) or ``serve`` -- and an installed ``repro.obs`` tracer
sees that decision as the ``repl.read`` event.  These tests pin the
decision sequence for all three, and that a read served on arrival
allocates no parked-read record.
"""

import pytest

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs import trace_run
from repro.replication import read_path
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.report.grid import STRATEGIES
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject

from tests.conftest import resolve

PARTIAL = dict(coherence_transfer=CoherenceTransfer.PARTIAL,
               access_transfer=AccessTransfer.PARTIAL)


def build(policy):
    sim = Simulator(seed=5)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy, pages={"p": "seed"},
                     designated_writer="master")
    site.create_server("server")
    site.create_cache("cache")
    reader = site.bind_browser("u", "user", read_store="cache")
    return sim, reader


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
