"""Unit tests for session state and the coherence-model taxonomy."""

from repro.coherence.models import (
    CoherenceModel,
    SessionGuarantee,
    guarantees_subsumed_by,
    model_strength,
    residual_guarantees,
)
from repro.coherence.session import SessionState
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

RYW = SessionGuarantee.READ_YOUR_WRITES
MR = SessionGuarantee.MONOTONIC_READS
MW = SessionGuarantee.MONOTONIC_WRITES
WFR = SessionGuarantee.WRITES_FOLLOW_READS


class TestModelTaxonomy:
    def test_strength_order(self):
        order = [CoherenceModel.EVENTUAL, CoherenceModel.FIFO,
                 CoherenceModel.PRAM, CoherenceModel.CAUSAL,
                 CoherenceModel.SEQUENTIAL]
        strengths = [model_strength(m) for m in order]
        assert strengths == sorted(strengths)

    def test_sequential_subsumes_every_guarantee(self):
        assert guarantees_subsumed_by(CoherenceModel.SEQUENTIAL) == \
            frozenset(SessionGuarantee)

    def test_causal_subsumes_every_guarantee(self):
        assert guarantees_subsumed_by(CoherenceModel.CAUSAL) == \
            frozenset(SessionGuarantee)

    def test_pram_subsumes_only_monotonic_writes(self):
        assert guarantees_subsumed_by(CoherenceModel.PRAM) == frozenset({MW})

    def test_eventual_subsumes_nothing(self):
        assert guarantees_subsumed_by(CoherenceModel.EVENTUAL) == frozenset()

    def test_residual_guarantees(self):
        # The paper: "if only PRAM consistency is offered, a client may
        # decide to impose the Monotonic Reads model as well."
        residual = residual_guarantees(CoherenceModel.PRAM, {MW, MR})
        assert residual == {MR}


class TestSessionState:
    def test_mint_wid_sequential(self):
        session = SessionState("c")
        assert session.mint_wid() == WriteId("c", 1)
        assert session.mint_wid() == WriteId("c", 2)

    def test_read_requirement_empty_without_guarantees(self):
        session = SessionState("c")
        session.observe_write(WriteId("c", 1), "server")
        session.observe_read(VectorClock({"x": 4}))
        assert session.read_requirement() == VectorClock()

    def test_ryw_requirement_is_own_writes(self):
        session = SessionState("c", frozenset({RYW}))
        session.observe_write(WriteId("c", 3), "server")
        session.observe_read(VectorClock({"x": 4}))
        assert session.read_requirement() == VectorClock({"c": 3})

    def test_mr_requirement_is_read_vector(self):
        session = SessionState("c", frozenset({MR}))
        session.observe_read(VectorClock({"x": 4}))
        session.observe_read(VectorClock({"y": 2}))
        assert session.read_requirement() == VectorClock({"x": 4, "y": 2})

    def test_combined_requirement_merges(self):
        session = SessionState("c", frozenset({RYW, MR}))
        session.observe_write(WriteId("c", 1), "s")
        session.observe_read(VectorClock({"x": 2}))
        requirement = session.read_requirement()
        assert requirement.dominates(VectorClock({"c": 1, "x": 2}))

    def test_write_deps_none_without_wfr(self):
        session = SessionState("c", frozenset({RYW, MR, MW}))
        session.observe_read(VectorClock({"x": 1}))
        assert session.write_deps() is None

    def test_wfr_deps_include_reads_and_own_writes(self):
        session = SessionState("c", frozenset({WFR}))
        session.observe_read(VectorClock({"x": 2}))
        session.observe_write(WriteId("c", 1), "s")
        deps = session.write_deps()
        assert deps.dominates(VectorClock({"x": 2, "c": 1}))

    def test_observe_write_tracks_dependency_pair(self):
        # The paper's prototype stores (WiD, store_id) as the dependency.
        session = SessionState("m")
        session.observe_write(WriteId("m", 5), "web-server")
        assert session.last_write == WriteId("m", 5)
        assert session.last_write_store == "web-server"

    def test_to_wire_shape(self):
        session = SessionState("m", frozenset({RYW}))
        session.observe_write(WriteId("m", 2), "server")
        wire = session.to_wire()
        assert wire["client_id"] == "m"
        assert wire["last_write"] == "m:2"
        assert wire["requirement"] == {"m": 2}
        assert wire["guarantees"] == ["read-your-writes"]


class TestWireCache:
    def test_to_wire_is_cached_until_state_changes(self):
        session = SessionState("c", guarantees=frozenset({RYW, MR}))
        first = session.to_wire()
        assert session.to_wire() is first  # cached by reference

    def test_observe_write_invalidates(self):
        session = SessionState("c", guarantees=frozenset({RYW}))
        before = session.to_wire()
        session.observe_write(session.mint_wid(), "store")
        after = session.to_wire()
        assert after is not before
        assert after["last_write"] != before["last_write"]

    def test_observe_read_invalidates_only_on_merge_change(self):
        session = SessionState("c", guarantees=frozenset({MR}))
        session.observe_read(VectorClock({"x": 4}))
        cached = session.to_wire()
        # A dominated version changes nothing: the cache survives.
        session.observe_read(VectorClock({"x": 3}))
        assert session.to_wire() is cached
        # A newer component must rebuild the requirement.
        session.observe_read(VectorClock({"x": 5}))
        fresh = session.to_wire()
        assert fresh is not cached
        assert fresh["requirement"] != cached["requirement"]
        # Without monotonic reads the wire form never shows read_vc, so
        # an advancing read keeps it.
        session = SessionState("c", guarantees=frozenset({RYW}))
        cached = session.to_wire()
        session.observe_read(VectorClock({"x": 5}))
        assert session.read_vc.as_dict() == {"x": 5}
        assert session.to_wire() is cached

    def test_wire_sized_matches_fresh_walk(self):
        from repro.comm.message import estimate_size

        session = SessionState("c", guarantees=frozenset({RYW, MR, WFR}))
        session.observe_write(session.mint_wid(), "store")
        session.observe_read(VectorClock({"c": 1, "x": 9}))
        wire, size = session.wire_sized()
        assert size == estimate_size(wire)
