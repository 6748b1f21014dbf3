"""Unit tests for the four extracted replication protocol components.

The engine façade is integration-tested by ``test_engine_*``; these tests
pin each component's own contract -- write path, read/demand path,
propagation strategy and coherence emitter -- against a real composition
on the simulator.
"""

import types

import pytest

from repro.coherence.models import CoherenceModel, SessionGuarantee
from repro.coherence.records import WriteRecord
from repro.coherence.trace import ApplyEvent, DropEvent
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import MarshalledInvocation
from repro.comm.message import Message
from repro.core.ids import WriteId
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication import messages as mk
from repro.replication.emission import CoherenceEmitter
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    Propagation,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
    WriteSet,
)
from repro.replication.propagation import PropagationStrategy
from repro.replication.read_path import DEMAND_RETRY_INTERVAL, ReadDemandPath
from repro.replication.write_path import WritePath
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject


def build(policy=None, seed=1, pages=None, writer=None, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy,
                     pages=pages or {"index.html": "seed"},
                     designated_writer=writer, **kwargs)
    return sim, net, site


def write_record(client="w", seqno=1, page="index.html", content="x",
                 **fields):
    return WriteRecord(
        wid=WriteId(client, seqno),
        invocation=MarshalledInvocation(
            "write_page", (page, content), read_only=False
        ),
        **fields,
    )


class TestComposition:
    def test_engine_exposes_all_four_components(self):
        _, _, site = build()
        engine = site.create_server("server").engine
        assert isinstance(engine.writes, WritePath)
        assert isinstance(engine.reads, ReadDemandPath)
        assert isinstance(engine.propagation, PropagationStrategy)
        assert isinstance(engine.emission, CoherenceEmitter)
        # Every component shares the façade's replica state.
        for component in (engine.writes, engine.reads,
                          engine.propagation, engine.emission):
            assert component.engine is engine


class TestWritePath:
    def test_writer_check_locks_to_first_writer(self):
        _, _, site = build()  # single write set, no designated writer
        engine = site.create_server("server").engine
        assert engine.writes.writer_check("alice") is None
        assert engine.allowed_writer == "alice"
        error = engine.writes.writer_check("bob")
        assert error is not None and "alice" in error

    def test_writer_check_multiple_writers_always_pass(self):
        policy = ReplicationPolicy(model=CoherenceModel.EVENTUAL,
                                   write_set=WriteSet.MULTIPLE)
        _, _, site = build(policy=policy)
        engine = site.create_server("server").engine
        assert engine.writes.writer_check("alice") is None
        assert engine.writes.writer_check("bob") is None

    def test_stamp_fills_metadata(self):
        sim, _, site = build()
        engine = site.create_server("server").engine
        record = write_record()
        stamped = engine.writes.stamp(record)
        assert stamped.touched == ("index.html",)
        assert stamped.origin == "server"
        assert stamped.timestamp == sim.now
        assert stamped.global_seq is None  # PRAM: no sequencer
        # The submitted record is a value: stamping returned a copy.
        assert stamped.wid == record.wid and record.touched == ()

    def test_stamp_sequences_at_sequential_primary(self):
        policy = ReplicationPolicy(model=CoherenceModel.SEQUENTIAL)
        _, _, site = build(policy=policy)
        engine = site.create_server("server").engine
        first = engine.writes.stamp(write_record(seqno=1))
        second = engine.writes.stamp(write_record(seqno=2))
        assert (first.global_seq, second.global_seq) == (1, 2)
        assert engine.writes.next_global == 3
        # A record the sequencer already numbered keeps its number.
        assert engine.writes.stamp(first).global_seq == 1
        assert engine.writes.next_global == 3

    def test_write_dropped_while_buffered_is_acked(self):
        # a:1 waits on a dependency; the newer b:1 to the same page then
        # supersedes it inside the drain, which must settle a:1's ack.
        policy = ReplicationPolicy(model=CoherenceModel.EVENTUAL,
                                   write_set=WriteSet.MULTIPLE)
        sim, _, site = build(policy=policy)
        site.create_server("server")
        engine = site.create_cache("cache").engine
        sim.run_until_idle()
        request = Message(mk.WRITE, {})
        engine.writes.accept_or_forward(
            write_record("a", 1, deps=VectorClock({"z": 1})), {}, "c", request
        )
        assert WriteId("a", 1) in engine.writes.pending_acks
        engine.ingest_records(
            [write_record("b", 1, touched=("index.html",),
                          timestamp=sim.now + 1.0)],
            skip=None,
        )
        assert engine.ordering.dropped == 1
        assert engine.writes.pending_acks == {}
        assert engine.counters["tx:write_ack"] == 1


class TestIngestRecords:
    def test_drop_inside_the_drain_is_traced_under_its_own_wid(self):
        sim, _, site = build(policy=ReplicationPolicy(
            model=CoherenceModel.FIFO))
        site.create_server("server")
        engine = site.create_cache("cache").engine
        sim.run_until_idle()
        before = len(site.trace.events)
        # a:1 waits on b:1; a:2 applies, which supersedes the buffered a:1.
        engine.ingest_records([
            write_record("a", 1, touched=("index.html",),
                         deps=VectorClock({"b": 1})),
            write_record("a", 2, touched=("index.html",)),
        ], skip=None)
        events = site.trace.events[before:]
        assert [(type(e), str(e.wid)) for e in events] == [
            (DropEvent, "a:1"), (ApplyEvent, "a:2"),
        ]


class TestReadDemandPath:
    def test_primary_never_needs_fetch(self):
        _, _, site = build()
        engine = site.create_server("server").engine
        assert engine.reads.keys_needing_fetch(("ghost.html",)) == []

    def test_cache_reports_missing_and_invalid_keys(self):
        sim, _, site = build()
        site.create_server("server")
        cache_engine = site.create_cache("cache").engine
        reads = cache_engine.reads
        assert reads.keys_needing_fetch(("index.html",)) == ["index.html"]
        # Absent-marked keys are excluded: the semantics error is final.
        assert reads.keys_needing_fetch(("index.html",), {"index.html"}) == []

    def test_served_version_merges_per_key_freshness(self):
        sim, _, site = build()
        engine = site.create_server("server").engine
        client = site.bind_browser("c-space", "m", read_store="server")
        from tests.conftest import resolve

        resolve(sim, client.write_page("index.html", "v1"))
        served = engine.reads.served_version(("index.html",))
        assert served.as_dict() == {"m": 1}

    def test_demand_at_primary_is_a_no_op(self):
        _, _, site = build()
        engine = site.create_server("server").engine
        engine.reads.demand()
        assert engine.counters["tx:demand"] == 0

    def test_demand_coalesces_while_inflight(self):
        sim, _, site = build()
        site.create_server("server")
        cache_engine = site.create_cache("cache").engine
        cache_engine.reads.demand()
        cache_engine.reads.demand()  # inflight: queued, not sent
        assert cache_engine.counters["tx:demand"] == 1
        sim.run_until_idle()
        # No read is parked, so the queued round goes out as a log-suffix
        # demand once the first reply lands.
        assert cache_engine.counters["tx:demand"] == 2

    @staticmethod
    def record_demands(monkeypatch, server):
        """The ``(keys, want_full)`` of every demand ``server`` serves."""
        received = []
        serve = server.engine.reads.serve_demand

        def spy(src, message):
            received.append((message.body["keys"], message.body["want_full"]))
            serve(src, message)

        monkeypatch.setattr(server.engine.reads, "serve_demand", spy)
        return received

    def test_keyed_demand_made_during_a_round_keeps_its_keys(
            self, monkeypatch):
        # b.html parks while a.html's round is out.  Its keys must go out
        # as soon as that round lands, not after a keyless log-suffix
        # round and a retry interval.
        policy = ReplicationPolicy(
            propagation=Propagation.UPDATE,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
        )
        sim, _, site = build(policy=policy,
                             pages={"a.html": "A", "b.html": "B"})
        server = site.create_server("server")
        cache = site.create_cache("cache")
        reader = site.bind_browser("c-space", "r", read_store="cache")
        received = self.record_demands(monkeypatch, server)
        resolved = {}
        reader.read_page("a.html")
        sim.run(until=0.01)
        asked = sim.now
        reader.read_page("b.html").add_callback(
            lambda future: resolved.setdefault("b", sim.now))
        sim.run_until_idle()
        assert [keys for keys, _ in received] == [["a.html"], ["b.html"]]
        assert cache.engine.counters["tx:demand"] == 2
        assert resolved["b"] - asked < DEMAND_RETRY_INTERVAL

    @pytest.mark.parametrize("case, policy, expected", [
        ("cold", dict(access_transfer=AccessTransfer.PARTIAL),
         [(["index.html"], False)]),
        ("cold", dict(access_transfer=AccessTransfer.FULL), [(None, True)]),
        ("gap", dict(client_outdate_reaction=OutdateReaction.DEMAND),
         [(None, False)]),
        ("gap", dict(client_outdate_reaction=OutdateReaction.WAIT), []),
        ("primary", dict(access_transfer=AccessTransfer.PARTIAL), []),
    ], ids=["cold-partial", "cold-full", "gap-demand", "gap-wait",
            "primary-missing"])
    def test_a_parked_read_demands_what_the_policy_says(
            self, monkeypatch, case, policy, expected):
        if case == "gap":
            # A pull-periodic cache that never pulls in the test's window.
            policy = dict(
                policy,
                transfer_initiative=TransferInitiative.PULL,
                transfer_instant=TransferInstant.LAZY,
                lazy_interval=1000.0,
                coherence_transfer=CoherenceTransfer.PARTIAL,
                access_transfer=AccessTransfer.PARTIAL,
            )
        sim, _, site = build(policy=ReplicationPolicy(**policy), writer="m")
        server = site.create_server("server")
        site.create_cache("cache")
        received = self.record_demands(monkeypatch, server)
        if case == "primary":
            reader = site.bind_browser("c-space", "r", read_store="server")
            read = reader.read_page("ghost.html")
        else:
            reader = site.bind_browser(
                "c-space", "m", read_store="cache", write_store="server",
                guarantees=[SessionGuarantee.READ_YOUR_WRITES])
            if case == "gap":
                # Cache the page, then write past the cached copy: the
                # next read is held back by its session requirement alone.
                reader.read_page("index.html")
                sim.run(until=1.0)
                reader.write_page("index.html", "v1")
                sim.run(until=2.0)
                received.clear()
            read = reader.read_page("index.html")
        sim.run(until=sim.now + 1.0)
        assert received == expected
        if case == "primary":  # the semantics error, not a fetch
            with pytest.raises(Exception, match="ghost.html"):
                read.result()


class TestPropagationStrategy:
    def test_aggregate_keeps_only_last_write_per_key_under_fifo(self):
        policy = ReplicationPolicy(model=CoherenceModel.FIFO)
        _, _, site = build(policy=policy)
        engine = site.create_server("server").engine
        records = [engine.writes.stamp(record) for record in (
            write_record(seqno=1), write_record(seqno=2),
            write_record(seqno=3, page="other.html"))]
        aggregated = engine.propagation.aggregate(records)
        assert [r.wid.seqno for r in aggregated] == [2, 3]

    def test_aggregate_preserves_order_sensitive_models(self):
        _, _, site = build()  # PRAM: every write matters
        engine = site.create_server("server").engine
        records = [engine.writes.stamp(write_record(seqno=1)),
                   engine.writes.stamp(write_record(seqno=2))]
        assert engine.propagation.aggregate(records) == records

    def test_lazy_instant_buffers_until_flush(self):
        policy = ReplicationPolicy(transfer_instant=TransferInstant.LAZY,
                                   lazy_interval=2.0)
        sim, _, site = build(policy=policy, writer="m")
        server = site.create_server("server")
        site.create_cache("cache")
        client = site.bind_browser("c-space", "m", read_store="server")
        from tests.conftest import settle

        settle(sim, client.write_page("index.html", "v1"))
        assert len(server.engine.propagation.pending_lazy) == 1
        assert server.engine.counters["tx:update"] == 0
        sim.run(until=sim.now + 2.5)
        assert server.engine.propagation.pending_lazy == []
        assert server.engine.counters["tx:update_full"] == 1

    def test_pull_initiative_never_pushes(self):
        policy = ReplicationPolicy(
            transfer_initiative=TransferInitiative.PULL,
            transfer_instant=TransferInstant.LAZY,
            lazy_interval=60.0,
        )
        sim, _, site = build(policy=policy, writer="m")
        server = site.create_server("server")
        site.create_cache("cache")
        client = site.bind_browser("c-space", "m", read_store="server")
        from tests.conftest import resolve

        resolve(sim, client.write_page("index.html", "v1"))
        assert server.engine.counters["tx:update"] == 0
        assert server.engine.counters["tx:update_full"] == 0


class TestCoherenceEmitter:
    def emit(self, policy, n_children=2):
        sim, _, site = build(policy=policy, writer="m")
        server = site.create_server("server")
        for index in range(n_children):
            site.create_cache(f"cache-{index}")
        client = site.bind_browser("c-space", "m", read_store="server")
        from tests.conftest import resolve

        resolve(sim, client.write_page("index.html", "v1"))
        return server.engine

    def test_notification_transfer_sends_notify(self):
        engine = self.emit(ReplicationPolicy(
            coherence_transfer=CoherenceTransfer.NOTIFICATION))
        assert engine.counters["tx:notify"] == 2
        assert engine.counters["tx:update"] == 0

    def test_invalidate_partial_names_touched_keys(self):
        engine = self.emit(ReplicationPolicy(
            propagation=Propagation.INVALIDATE,
            coherence_transfer=CoherenceTransfer.PARTIAL))
        assert engine.counters["tx:invalidate"] == 2

    def test_full_transfer_ships_snapshots(self):
        engine = self.emit(ReplicationPolicy(
            coherence_transfer=CoherenceTransfer.FULL))
        assert engine.counters["tx:update_full"] == 2
        body = engine.emission.snapshot_body()
        assert set(body) == {"state", "version"}
        assert "index.html" in body["state"]

    def test_partial_update_ships_record_batches(self, monkeypatch):
        from repro.comm.endpoint import CommunicationObject

        calls = []
        multicast = CommunicationObject.multicast

        def spy(comm, dsts, message):
            before = (comm.messages_sent, comm.bytes_sent)
            multicast(comm, dsts, message)
            calls.append((comm.address, list(dsts), message,
                          comm.messages_sent - before[0],
                          comm.bytes_sent - before[1]))

        monkeypatch.setattr(CommunicationObject, "multicast", spy)
        monkeypatch.setattr(
            CoherenceEmitter, "send_update",
            lambda *args: pytest.fail("fan-out went through send_update"),
        )
        engine = self.emit(ReplicationPolicy(
            coherence_transfer=CoherenceTransfer.PARTIAL), n_children=3)
        assert engine.counters["tx:update"] == 3
        # One message, encoded and sized once, handed to one multicast.
        [(address, targets, message, messages, size)] = calls
        assert address == "server"
        assert targets == ["cache-0", "cache-1", "cache-2"]
        assert message.kind == "update"
        assert [w["wid"] for w in message.body["records"]] == ["m:1"]
        assert messages == 3
        assert size == 3 * message.payload_size() == 3 * 258

    def test_every_shape_traces_one_emit_event_per_transmission(self):
        from repro.obs import trace_run

        for transfer, name, detail in (
            (CoherenceTransfer.NOTIFICATION, "notify", {}),
            (CoherenceTransfer.FULL, "update_full", {}),
            (CoherenceTransfer.PARTIAL, "update", {"records": 1}),
        ):
            with trace_run() as tracer:
                self.emit(ReplicationPolicy(coherence_transfer=transfer),
                          n_children=3)
            [event] = [e for e in tracer.events if e["kind"] == "repl.emit"]
            assert event["message"] == name and event["targets"] == 3
            assert {k: v for k, v in event.items() if k not in (
                "t", "kind", "node", "obj", "message", "targets", "strategy",
            )} == detail

    def test_fanout_replicas_share_frozen_records(self):
        # Decoded once per message on the in-process backends: the three
        # replicas log the same record objects, which is safe because a
        # record cannot be changed once built.
        import dataclasses

        sim, _, site = build(policy=ReplicationPolicy(
            coherence_transfer=CoherenceTransfer.PARTIAL), writer="m")
        site.create_server("server")
        caches = [site.create_cache(f"cache-{i}") for i in range(3)]
        client = site.bind_browser("c-space", "m", read_store="server")
        from tests.conftest import resolve

        resolve(sim, client.write_page("index.html", "v1"))
        sim.run_until_idle()
        logged = [cache.engine.log[0] for cache in caches]
        assert all(record is logged[0] for record in logged)
        with pytest.raises(dataclasses.FrozenInstanceError):
            logged[0].timestamp = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            logged[0].touched = ()

    def test_sequential_snapshot_carries_sequencer_state(self):
        engine = self.emit(ReplicationPolicy(
            model=CoherenceModel.SEQUENTIAL,
            coherence_transfer=CoherenceTransfer.FULL))
        assert "next_global" in engine.emission.snapshot_body()


class TestFacadeSurface:
    def test_compat_delegators_still_work(self):
        sim, _, site = build()
        site.create_server("server")
        cache = site.create_cache("cache")
        cache.sync_full()  # engine.reads.demand under the hood
        sim.run_until_idle()
        assert cache.engine.counters["tx:demand"] == 1
        assert cache.state()["index.html"]["content"] == "seed"


class _RecordingComm:
    """Minimal communication stub: captures requests, never replies."""

    address = "c1"

    def __init__(self):
        self.requests = []

    def request(self, dst, message, timeout=None, retries=0):
        from repro.sim.future import Future

        self.requests.append((dst, message))
        return Future()


class _RecordingControl:
    """Minimal control stub over a recording comm and a stopped clock."""

    def __init__(self):
        self.comm = _RecordingComm()
        self.sim = types.SimpleNamespace(now=0.0)


class TestReadRequestSizing:
    """The client assembles read-request sizes from cached parts; the
    arithmetic must equal a fresh ``estimate_size`` walk over the body."""

    def _client(self, **kwargs):
        from repro.coherence.models import SessionGuarantee
        from repro.replication.client import ClientReplicationObject

        client = ClientReplicationObject(
            "c1", read_store="cache",
            guarantees={SessionGuarantee.READ_YOUR_WRITES,
                        SessionGuarantee.MONOTONIC_READS},
            **kwargs,
        )
        client.attach(_RecordingControl())
        return client

    def _sent_message(self, client):
        return client.comm.requests[-1][1]

    def assert_size_pinned(self, message):
        from repro.comm.message import envelope_cost, estimate_size

        walked = envelope_cost(message.kind) + estimate_size(message.body)
        assert message.payload_size() == walked

    def test_plain_read_size_matches_walk(self):
        client = self._client()
        invocation = MarshalledInvocation("read_page", ("index.html",))
        client.handle_invocation(invocation)
        self.assert_size_pinned(self._sent_message(client))

    def test_weighted_read_size_matches_walk(self):
        client = self._client()
        invocation = MarshalledInvocation("read_page", ("index.html",))
        client.handle_invocation(invocation, weight=25)
        message = self._sent_message(client)
        assert message.body["weight"] == 25
        self.assert_size_pinned(message)

    def test_size_tracks_session_growth(self):
        # After observing reads/writes the session wire dict grows; the
        # cached-parts arithmetic must track it exactly.
        from repro.coherence.vector_clock import VectorClock

        client = self._client()
        client.session.observe_write(client.session.mint_wid(), "cache")
        client.session.observe_read(VectorClock({"w": 3, "c1": 1}))
        invocation = MarshalledInvocation("read_page", ("a.html",))
        client.handle_invocation(invocation)
        self.assert_size_pinned(self._sent_message(client))

    def test_repeat_reads_share_cached_encoding(self):
        client = self._client()
        invocation = MarshalledInvocation("read_page", ("index.html",))
        client.handle_invocation(invocation)
        first = self._sent_message(client).body["invocation"]
        client.handle_invocation(
            MarshalledInvocation("read_page", ("index.html",)))
        second = self._sent_message(client).body["invocation"]
        assert second is first  # shared by reference, equal by value
        self.assert_size_pinned(self._sent_message(client))

    def test_unhashable_args_fall_back_to_uncached(self):
        from repro.replication.client import _read_encoding

        client = self._client()
        before = _read_encoding.cache_info().currsize
        invocation = MarshalledInvocation("read_page", (["list-arg"],))
        client.handle_invocation(invocation)
        self.assert_size_pinned(self._sent_message(client))
        assert _read_encoding.cache_info().currsize == before

    def test_equal_args_of_other_types_are_not_conflated(self):
        # 1, 1.0 and True are one dict key but three encodings: only
        # string arguments may share a cached wire dict across clients.
        from repro.replication.client import _read_encoding

        before = _read_encoding.cache_info().currsize
        for arg in (1, True, 1.0):
            client = self._client()
            client.handle_invocation(MarshalledInvocation("read_page", (arg,)))
            message = self._sent_message(client)
            [sent] = message.body["invocation"]["args"]
            assert type(sent) is type(arg)
            self.assert_size_pinned(message)
        assert _read_encoding.cache_info().currsize == before
