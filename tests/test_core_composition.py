"""Tests for the local-object composition, stub marshalling and records."""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.records import WriteRecord
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import MarshalledInvocation
from repro.core.ids import WriteId, fresh_object_id
from repro.core.interfaces import Role, STORE_LAYERS
from repro.core.local_object import LocalObject
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication.client import ReplicaError
from repro.replication.engine import StoreReplicationObject
from repro.replication.policy import ReplicationPolicy
from repro.report.grid import STRATEGIES
from repro.sim.kernel import Simulator
from repro.web.document import WebDocument
from repro.web.webobject import WebObject
from repro.workload.profiles import default_pages
from repro.workload.scenarios import build_tree
from tests.conftest import resolve


class TestRoles:
    def test_store_layers_order(self):
        assert STORE_LAYERS == (
            Role.PERMANENT, Role.OBJECT_INITIATED, Role.CLIENT_INITIATED)

    def test_client_is_not_a_store(self):
        assert not Role.CLIENT.is_store
        assert Role.PERMANENT.is_store


class TestObjectIds:
    def test_fresh_ids_unique(self):
        assert fresh_object_id() != fresh_object_id()

    def test_prefix_respected(self):
        assert fresh_object_id("web").startswith("web-")


class TestLocalObject:
    def test_store_requires_semantics(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            LocalObject(
                sim, net, "s", Role.PERMANENT,
                StoreReplicationObject(ReplicationPolicy(), Role.PERMANENT),
                semantics=None,
            )

    def test_composition_wires_control(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        engine = StoreReplicationObject(ReplicationPolicy(), Role.PERMANENT)
        local = LocalObject(sim, net, "server", Role.PERMANENT, engine,
                            semantics=WebDocument(pages={"p": "x"}))
        assert engine.control is local.control
        assert engine.comm is local.comm
        assert engine.clock is sim
        assert engine.address == "server"
        assert local.control.address == "server"
        assert local.control.role is Role.PERMANENT
        assert net.is_registered("server")

    def test_destroy_unregisters(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        engine = StoreReplicationObject(ReplicationPolicy(), Role.PERMANENT)
        local = LocalObject(sim, net, "server", Role.PERMANENT, engine,
                            semantics=WebDocument())
        local.destroy()
        assert not net.is_registered("server")

    def test_store_takes_no_method_calls(self):
        # A store's one input is a message: a caller in its address space
        # is told to bind a client, and nothing reaches the replica.
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        engine = StoreReplicationObject(ReplicationPolicy(), Role.PERMANENT)
        local = LocalObject(sim, net, "server", Role.PERMANENT, engine,
                            semantics=WebDocument(pages={"p": "x"}))
        for invocation in (
            MarshalledInvocation("read_page", ("p",)),
            MarshalledInvocation("write_page", ("p", "y"), read_only=False),
        ):
            with pytest.raises(NotImplementedError,
                               match=r"DistributedSharedObject\.bind"):
                local.control.invoke(invocation)
        sim.run_until_idle()
        assert engine.version() == {}
        assert engine.snapshot_state()["p"]["content"] == "x"
        assert not engine.counters

    def test_durable_state_carries_no_local_write_counters(self):
        # Write ids are minted by clients only, so a store persists no
        # per-client sequence counters of its own.
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        site = WebObject(sim, net, pages={"p": "x"})
        engine = site.create_server("server").engine
        browser = site.bind_browser("admin-space", "admin",
                                    read_store="server")
        resolve(sim, browser.write_page("p", "y"))
        durable = {"ordering", "log", "log_base", "as_of", "invalid_keys",
                   "known_remote", "counters", "has_full_state", "children",
                   "allowed_writer", "write_next_global", "pending_lazy"}
        state = engine.checkpoint()
        assert set(state) == durable
        assert set(engine.delta()["fields"]) <= durable
        # A field an older snapshot still carries is ignored on restore.
        engine.restore({**state, "retired": {"admin": 1}})
        assert engine.version() == {"admin": 1}


class TestWriteRecordWire:
    def test_roundtrip(self):
        record = WriteRecord(
            wid=WriteId("m", 3),
            invocation=MarshalledInvocation("write_page", ("p", "c"),
                                            (("content_type", "t"),), False),
            touched=("p",),
            deps=VectorClock({"u": 2}),
            global_seq=9,
            timestamp=1.5,
            origin="server",
        )
        restored = WriteRecord.from_wire(record.to_wire())
        assert restored.wid == record.wid
        assert restored.invocation == record.invocation
        assert restored.touched == record.touched
        assert restored.deps == record.deps
        assert restored.global_seq == 9
        assert restored.timestamp == 1.5
        assert restored.origin == "server"

    def test_none_deps_roundtrip(self):
        record = WriteRecord(
            wid=WriteId("m", 1),
            invocation=MarshalledInvocation("delete_page", ("p",),
                                            read_only=False),
        )
        assert WriteRecord.from_wire(record.to_wire()).deps is None

    @given(st.text(min_size=1, max_size=10), st.integers(1, 1000),
           st.floats(0, 1e6),
           st.dictionaries(st.text(min_size=1, max_size=5),
                           st.integers(1, 50), max_size=3))
    def test_roundtrip_property(self, client, seqno, ts, deps):
        record = WriteRecord(
            wid=WriteId(client, seqno),
            invocation=MarshalledInvocation("append_to_page", ("p", "x"),
                                            read_only=False),
            deps=VectorClock(deps),
            timestamp=ts,
        )
        restored = WriteRecord.from_wire(record.to_wire())
        assert restored.wid == record.wid
        assert restored.deps == record.deps
        assert restored.timestamp == ts


class TestReadsCannotWrite:
    """A read-only invocation never changes a replica.

    Only replication may change a replica: a write is ordered, logged and
    pushed.  A "read" naming a write method, or anything that is not a
    document method, is refused with the read's error reply, and the
    replica it reached stays as it was.
    """

    @staticmethod
    def warmed():
        deployment = build_tree(
            policy=STRATEGIES["push-update"].build_policy(), n_caches=2,
            pages=dict(default_pages()))
        reader = deployment.browsers["reader-0-0"]
        resolve(deployment.sim, reader.read_page("page-0.html"))
        return deployment, reader

    @pytest.mark.parametrize("method,args", [
        ("delete_page", ("page-0.html",)),
        ("write_page", ("page-0.html", "forged")),
        ("append_to_page", ("page-0.html", "forged")),
        ("set_clock", (None,)),
        ("snapshot", ()),
        ("pages", ()),
    ])
    def test_read_of_a_non_read_method_is_refused(self, method, args):
        deployment, reader = self.warmed()
        states = deployment.site.store_states()
        before = reader.read_page("page-0.html")
        resolve(deployment.sim, before)
        future = reader._stub.read(method, *args)
        with pytest.raises(ReplicaError):
            resolve(deployment.sim, future)
        assert deployment.site.store_states() == states
        after = reader.read_page("page-0.html")
        assert resolve(deployment.sim, after) == before.result()
        # The cache still applies and serves a write pushed to it.
        master = deployment.browsers["master"]
        resolve(deployment.sim, master.write_page("page-0.html", "new"))
        deployment.sim.run_until_idle()
        fresh = resolve(deployment.sim, reader.read_page("page-0.html"))
        assert fresh["content"] == "new"

    def test_document_refuses_a_read_only_write_method(self):
        doc = WebDocument(pages={"p": "x"})
        for method, args in [("write_page", ("p", "y")),
                             ("append_to_page", ("p", "y")),
                             ("delete_page", ("p",))]:
            with pytest.raises(ValueError, match="read-only"):
                doc.apply(MarshalledInvocation(method, args))
        assert doc.read_page("p")["content"] == "x"
        assert doc.apply(MarshalledInvocation("read_page", ("p",)))[
            "content"] == "x"
