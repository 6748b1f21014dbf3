"""The reply table checked against a fresh computation.

A store answers a warm read from its reply table
(``ReadDemandPath.replies``) without applying the invocation, copying its
version or sizing the reply.  The ``oracle`` fixture wraps ``serve``,
which answers from a table entry or builds one, and checks every reply
answered from the table against what the store computes now: the read is
admissible at the entry's version, and ``apply_local``,
``served_version`` and the size walk give the entry's result, version
and size.  Every ``READ_REPLY`` sent must also satisfy
``payload_size == envelope_cost(kind) + estimate_size(body)``.

The sweep runs every Table-1 strategy under every registered fault plan.
The targeted tests reach the state changes no sweep cell orders against
a filled table: a partial transfer that rewrites a page the cache already
serves, a checkpoint restore, and a journal delta.
"""

import collections

import pytest

from repro.coherence.models import SessionGuarantee
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import decode_invocation
from repro.comm.message import envelope_cost, estimate_size
from repro.comm.endpoint import CommunicationObject
from repro.faults.catalog import FAULT_PLANS
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs import trace_run
from repro.replication import messages as mk
from repro.replication.read_path import ReadDemandPath
from repro.report.grid import (
    FAULT_REQUEST_RETRIES,
    FAULT_REQUEST_TIMEOUT,
    STRATEGIES,
)
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject
from repro.workload.profiles import WorkloadProfile, run_profile

from tests.conftest import resolve, settle

PROFILE = WorkloadProfile(name="reply-table", writes=8, write_interval=0.5,
                          reads_per_client=12, read_think=0.3)
SESSION = (SessionGuarantee.READ_YOUR_WRITES,
           SessionGuarantee.MONOTONIC_READS)


def check_hit(path, request, requirement, reply):
    """A reply answered from the table equals a fresh computation."""
    engine = path.engine
    involved, served, body, size = reply
    invocation = decode_invocation(request.body["invocation"])
    assert not engine.pull_on_access
    assert tuple(engine.control.touched_keys(invocation)) == tuple(involved)
    assert path.admissible(involved, VectorClock(requirement)) == served
    assert body["version"] == path.served_version(involved).as_dict()
    assert body["result"] == engine.control.apply_local(invocation)
    assert size == envelope_cost(mk.READ_REPLY) + estimate_size(body)


@pytest.fixture
def oracle(monkeypatch):
    """Check every table-answered reply; count hits and replies."""
    counts = collections.Counter()
    serve = ReadDemandPath.serve
    send_reply = CommunicationObject.reply

    def checked_serve(self, src, request, invocation, client_id, requirement,
                      weight, served, involved, key, reply=None):
        assert key is None or not self.engine.pull_on_access
        if reply is not None:
            check_hit(self, request, requirement, reply)
            counts["hits"] += 1
            counts["session hits"] += bool(requirement)
        serve(self, src, request, invocation, client_id, requirement, weight,
              served, involved, key, reply)

    def checked_reply(self, dst, response):
        if response.kind == mk.READ_REPLY:
            assert response.payload_size() == (
                envelope_cost(response.kind) + estimate_size(response.body))
            counts["replies"] += 1
        send_reply(self, dst, response)

    monkeypatch.setattr(ReadDemandPath, "serve", checked_serve)
    monkeypatch.setattr(CommunicationObject, "reply", checked_reply)
    return counts


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_every_table_reply_matches_a_fresh_read(strategy, plan, oracle):
    run_profile(
        STRATEGIES[strategy].build_policy(), PROFILE, n_caches=2, seed=3,
        horizon=STRATEGIES[strategy].horizon, fault_plan=plan,
        request_timeout=FAULT_REQUEST_TIMEOUT,
        request_retries=FAULT_REQUEST_RETRIES, n_readers_per_cache=2,
    )
    assert 0 < oracle["hits"] < oracle["replies"]


def build(strategy, master_reads_at="server"):
    """A server, one cache, a reader on the cache and the master.

    The master asks for read-your-writes and monotonic reads, so its
    reads carry a session requirement once it has written.
    """
    sim = Simulator(seed=5)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=STRATEGIES[strategy].build_policy(),
                     pages={"p": "v0", "q": "q0"}, designated_writer="master")
    server = site.create_server("server")
    cache = site.create_cache("cache")
    reader = site.bind_browser("u", "user", read_store="cache")
    master = site.bind_browser("m", "master", read_store=master_reads_at,
                               write_store="server", guarantees=SESSION)
    return sim, server, cache, reader, master


def content(sim, reader, page="p"):
    """Read ``page`` without draining the queue (timers stay pending)."""
    return settle(sim, reader.read_page(page))["content"]


def test_partial_transfer_over_a_served_page_drops_the_table(oracle):
    # Pull-periodic: the cache hears of the write only when handed the
    # partial transfer below (its pull timer is minutes away).
    sim, server, cache, reader, master = build("pull-periodic")
    for _ in range(2):
        assert content(sim, reader) == "v0"
    settle(sim, master.write_page("p", "v1"))
    assert content(sim, reader) == "v0"
    served = server.engine.reads.served_version(["p"])
    cache.engine.reads.install_partial({
        "partial": True,
        "state": server.engine.control.semantics_snapshot(["p"]),
        "as_of": served.as_dict(),
        "absent": [],
    })
    assert content(sim, reader) == "v1"
    assert oracle["hits"] >= 2


def test_restore_and_journal_delta_drop_the_table(oracle):
    sim, server, cache, reader, master = build("push-update")
    engine = cache.engine
    assert content(sim, reader) == "v0"
    engine.delta()  # the persisted point the checkpoint below captures
    checkpoint, state = engine.checkpoint(), engine.snapshot_state()
    resolve(sim, master.write_page("p", "v1"))  # and its push to the cache
    delta = engine.delta()
    for _ in range(2):
        assert content(sim, reader) == "v1"
    engine.restore(checkpoint)
    engine.control.semantics_restore(state, partial=False)
    for _ in range(2):
        assert content(sim, reader) == "v0"
    engine.apply_delta(delta)
    for _ in range(2):
        assert content(sim, reader) == "v1"
    assert oracle["hits"] >= 3


def test_a_dominated_session_requirement_is_answered_from_the_table(oracle):
    sim, server, cache, reader, master = build("push-update",
                                               master_reads_at="cache")
    assert content(sim, master) == "v0"
    resolve(sim, master.write_page("p", "v1"))
    for _ in range(3):
        assert content(sim, master) == "v1"
    assert oracle["session hits"] >= 2


def test_an_undominated_requirement_parks_past_a_tabled_reply(oracle):
    # The master writes at the server and reads at a pull-periodic cache:
    # its read-your-writes requirement outruns the cache's tabled reply.
    sim, server, cache, reader, master = build("pull-periodic",
                                               master_reads_at="cache")
    for _ in range(2):
        assert content(sim, master) == "v0"
    assert oracle["hits"] == 1
    settle(sim, master.write_page("p", "v1"))
    with trace_run() as tracer:
        assert resolve(sim, master.read_page("p"))["content"] == "v1"
    assert [event["decision"] for event in tracer.events
            if event["kind"] == "repl.read"] == ["park"]
