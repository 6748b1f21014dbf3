"""Unit tests for the ordering disciplines (one per coherence model)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.coherence.models import CoherenceModel
from repro.coherence.ordering import (
    CausalOrdering,
    EventualOrdering,
    FifoOrdering,
    PramOrdering,
    SequentialOrdering,
    make_ordering,
)
from repro.coherence.records import WriteRecord
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import MarshalledInvocation
from repro.core.ids import WriteId


def rec(client, seqno, deps=None, global_seq=None, touched=("p",), ts=0.0):
    return WriteRecord(
        wid=WriteId(client, seqno),
        invocation=MarshalledInvocation("write_page", (f"{client}-{seqno}",),
                                        read_only=False),
        touched=tuple(touched),
        deps=VectorClock(deps) if deps is not None else None,
        global_seq=global_seq,
        timestamp=ts,
    )


def wids(records):
    return [r.wid for r in records]


class TestPramOrdering:
    def test_in_order_applies_immediately(self):
        ordering = PramOrdering()
        assert wids(ordering.offer(rec("m", 1))) == [WriteId("m", 1)]
        assert wids(ordering.offer(rec("m", 2))) == [WriteId("m", 2)]

    def test_out_of_order_buffers_until_gap_fills(self):
        ordering = PramOrdering()
        assert ordering.offer(rec("m", 2)) == []
        assert ordering.has_gaps()
        released = ordering.offer(rec("m", 1))
        assert wids(released) == [WriteId("m", 1), WriteId("m", 2)]
        assert not ordering.has_gaps()

    def test_independent_clients_do_not_block_each_other(self):
        ordering = PramOrdering()
        ordering.offer(rec("m", 2))  # buffered
        assert wids(ordering.offer(rec("u", 1))) == [WriteId("u", 1)]

    def test_duplicates_ignored(self):
        ordering = PramOrdering()
        ordering.offer(rec("m", 1))
        assert ordering.offer(rec("m", 1)) == []

    def test_buffered_duplicate_ignored(self):
        ordering = PramOrdering()
        ordering.offer(rec("m", 3))
        assert ordering.offer(rec("m", 3)) == []
        assert len(ordering.buffer) == 1

    def test_install_clears_covered_buffer(self):
        ordering = PramOrdering()
        ordering.offer(rec("m", 2))
        ordering.install(VectorClock({"m": 2}), {})
        assert not ordering.has_gaps()
        assert wids(ordering.offer(rec("m", 3))) == [WriteId("m", 3)]

    def test_deps_gate_release(self):
        ordering = PramOrdering()
        # m's first write depends on u:1 (writes-follow-reads).
        assert ordering.offer(rec("m", 1, deps={"u": 1})) == []
        released = ordering.offer(rec("u", 1))
        assert wids(released) == [WriteId("u", 1), WriteId("m", 1)]


class TestFifoOrdering:
    def test_gaps_are_skipped(self):
        ordering = FifoOrdering()
        assert wids(ordering.offer(rec("m", 3))) == [WriteId("m", 3)]
        assert not ordering.has_gaps()

    def test_stale_write_dropped(self):
        ordering = FifoOrdering()
        ordering.offer(rec("m", 3))
        assert ordering.offer(rec("m", 1)) == []
        assert ordering.dropped == 1

    def test_newer_write_still_applies(self):
        ordering = FifoOrdering()
        ordering.offer(rec("m", 3))
        assert wids(ordering.offer(rec("m", 7))) == [WriteId("m", 7)]


class TestCausalOrdering:
    def test_dependency_chain_across_clients(self):
        ordering = CausalOrdering()
        # Reply (b:1) depends on post (a:1); reply arrives first.
        assert ordering.offer(rec("b", 1, deps={"a": 1})) == []
        released = ordering.offer(rec("a", 1, deps={}))
        assert wids(released) == [WriteId("a", 1), WriteId("b", 1)]

    def test_own_writes_sequenced(self):
        ordering = CausalOrdering()
        assert ordering.offer(rec("a", 2, deps={"a": 1})) == []
        released = ordering.offer(rec("a", 1, deps={}))
        assert wids(released) == [WriteId("a", 1), WriteId("a", 2)]


class TestSequentialOrdering:
    def test_global_order_enforced(self):
        ordering = SequentialOrdering()
        assert ordering.offer(rec("b", 1, global_seq=2)) == []
        released = ordering.offer(rec("a", 1, global_seq=1))
        assert [r.global_seq for r in released] == [1, 2]

    def test_install_resets_next_global(self):
        ordering = SequentialOrdering()
        ordering.install(VectorClock({"a": 5}), {"next_global": 6})
        assert wids(ordering.offer(rec("b", 1, global_seq=6))) == [WriteId("b", 1)]


class TestEventualOrdering:
    def test_applies_anything_new(self):
        ordering = EventualOrdering()
        assert wids(ordering.offer(rec("m", 5))) == [WriteId("m", 5)]
        assert wids(ordering.offer(rec("m", 1, touched=("q",)))) == [WriteId("m", 1)]

    def test_lww_drops_older_write_to_same_key(self):
        ordering = EventualOrdering()
        ordering.offer(rec("a", 1, ts=5.0))
        assert ordering.offer(rec("b", 1, ts=2.0)) == []
        assert ordering.dropped == 1

    def test_lww_tiebreak_on_wid(self):
        ordering = EventualOrdering()
        ordering.offer(rec("b", 1, ts=5.0))
        # Same timestamp, smaller client id: loses the tiebreak.
        assert ordering.offer(rec("a", 1, ts=5.0)) == []

    def test_different_keys_unaffected_by_lww(self):
        ordering = EventualOrdering()
        ordering.offer(rec("a", 1, ts=5.0, touched=("p",)))
        assert wids(ordering.offer(rec("b", 1, ts=2.0, touched=("q",)))) == \
            [WriteId("b", 1)]


@pytest.mark.parametrize("factory,first,second", [
    (PramOrdering, [], ["a:1", "a:2"]),
    (CausalOrdering, [], ["a:1", "a:2"]),
    (EventualOrdering, ["a:2"], []),
], ids=["pram", "causal", "eventual"])
def test_concurrent_install_releases_the_writes_it_does_not_cover(
    factory, first, second
):
    """An install concurrent with ``a:1`` drops it, so a gapless store takes
    it again (then ``a:2``); eventual still counts ``a:1`` as seen."""
    ordering = factory()
    assert wids(ordering.offer(rec("a", 1, deps={}))) == [WriteId("a", 1)]
    ordering.install(VectorClock({"b": 1}), {})
    assert [str(w) for w in wids(ordering.offer(rec("a", 2, deps={})))] == first
    assert [str(w) for w in wids(ordering.offer(rec("a", 1, deps={})))] == second


@pytest.mark.parametrize("factory", [
    PramOrdering, FifoOrdering, CausalOrdering, SequentialOrdering,
], ids=["pram", "fifo", "causal", "sequential"])
def test_gapless_state_does_not_grow_with_history(factory):
    """The full checkpoint of a gapless discipline is bounded by replicas."""
    def size_after(n):
        ordering = factory()
        for seqno in range(1, n + 1):
            ordering.offer(rec("m", seqno, global_seq=seqno))
        return len(pickle.dumps(ordering.state_dict(), 5))

    assert size_after(300) == size_after(3000)


class TestFactory:
    @pytest.mark.parametrize("model,cls", [
        (CoherenceModel.PRAM, PramOrdering),
        (CoherenceModel.FIFO, FifoOrdering),
        (CoherenceModel.CAUSAL, CausalOrdering),
        (CoherenceModel.SEQUENTIAL, SequentialOrdering),
        (CoherenceModel.EVENTUAL, EventualOrdering),
    ])
    def test_factory_maps_models(self, model, cls):
        assert isinstance(make_ordering(model), cls)


@given(st.permutations(list(range(1, 9))))
def test_pram_applies_any_permutation_in_order(permutation):
    """Property: whatever the arrival order, PRAM applies 1..n in order."""
    ordering = PramOrdering()
    applied = []
    for seqno in permutation:
        applied.extend(wids(ordering.offer(rec("m", seqno))))
    assert applied == [WriteId("m", n) for n in range(1, 9)]
    assert not ordering.has_gaps()


@given(st.permutations(list(range(1, 8))), st.permutations(list(range(1, 8))))
def test_pram_two_clients_interleaved(perm_a, perm_b):
    """Property: per-client order holds under any interleaving."""
    ordering = PramOrdering()
    applied = []
    for sa, sb in zip(perm_a, perm_b):
        applied.extend(wids(ordering.offer(rec("a", sa))))
        applied.extend(wids(ordering.offer(rec("b", sb))))
    for client in ("a", "b"):
        seqs = [w.seqno for w in applied if w.client_id == client]
        assert seqs == sorted(seqs)
        assert seqs == list(range(1, len(seqs) + 1))


@given(st.permutations(list(range(1, 10))))
def test_sequential_applies_global_order(permutation):
    """Property: sequential releases exactly ascending global sequence."""
    ordering = SequentialOrdering()
    applied = []
    for n in permutation:
        applied.extend(
            r.global_seq for r in ordering.offer(rec("c", n, global_seq=n))
        )
    assert applied == list(range(1, 10))


@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 6),
                          st.floats(0, 10)), max_size=24))
def test_eventual_lww_never_regresses(entries):
    """Property: under LWW the applied stamp for a key never decreases."""
    ordering = EventualOrdering()
    best = None
    for client, seqno, ts in entries:
        for record in ordering.offer(rec(client, seqno, ts=ts)):
            stamp = (record.timestamp, record.wid)
            if best is not None:
                assert stamp > best
            best = stamp


def reference_offer(ordering, record):
    """``OrderingDiscipline.offer`` without its in-order fast path.

    Always inserts into the buffer, then drains: the model the fast path
    (release directly when nothing is buffered and the record is ready)
    must be indistinguishable from.
    """
    if record.wid in ordering.buffer:
        return []
    if ordering._superseded(record):
        ordering.dropped += 1
        ordering.on_drop(record)
        return []
    if ordering.incorporated(record.wid):
        return []
    ordering.buffer[record.wid] = record
    return ordering._drain()


@st.composite
def arrival_sequences(draw):
    """Distinct writes of three clients, then any arrival order of them.

    Every write gets a dependency vector (possibly unsatisfiable), a
    unique ``global_seq``, a key set and a timestamp, so each discipline
    finds the metadata it orders by; arrivals repeat and skip freely.
    """
    wids_ = draw(st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(1, 5)),
        min_size=1, max_size=10, unique=True,
    ))
    global_seqs = draw(st.permutations(range(1, len(wids_) + 1)))
    pool = [
        rec(
            client, seqno,
            deps=draw(st.none() | st.dictionaries(
                st.sampled_from("abc"), st.integers(0, 3), max_size=2)),
            global_seq=global_seq,
            touched=draw(st.lists(st.sampled_from("pqr"), max_size=2,
                                  unique=True)),
            ts=draw(st.integers(0, 4)),
        )
        for (client, seqno), global_seq in zip(wids_, global_seqs)
    ]
    return draw(st.lists(st.sampled_from(pool), max_size=30))


@pytest.mark.parametrize("factory", [
    PramOrdering, FifoOrdering, CausalOrdering, SequentialOrdering,
    EventualOrdering,
], ids=["pram", "fifo", "causal", "sequential", "eventual-lww"])
@given(arrivals=arrival_sequences())
def test_offer_matches_insert_then_drain_model(factory, arrivals):
    """Property: the fast path changes nothing an observer can see."""
    ordering, model = factory(), factory()
    drops, model_drops = [], []
    ordering.on_drop, model.on_drop = drops.append, model_drops.append
    for record in arrivals:
        released = ordering.offer(record)
        expected = reference_offer(model, record)
        assert [id(r) for r in released] == [id(r) for r in expected]
        assert ordering.applied == model.applied
        assert [id(r) for r in drops] == [id(r) for r in model_drops]
        assert ordering.buffer == model.buffer
        assert ordering.dropped == model.dropped
        # next_global, seen, LWW stamps and the install floor, where they exist.
        assert ordering.state_dict() == model.state_dict()
