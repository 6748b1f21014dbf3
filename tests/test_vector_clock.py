"""Unit and property tests for vector clocks and write identifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

clients = st.sampled_from(["a", "b", "c", "d"])
clock_dicts = st.dictionaries(clients, st.integers(0, 30), max_size=4)


class TestWriteId:
    def test_str_parse_roundtrip(self):
        wid = WriteId("client-m", 17)
        assert WriteId.parse(str(wid)) == wid

    def test_parse_handles_colons_in_client_id(self):
        wid = WriteId.parse("node:1:cache:42")
        assert wid == WriteId("node:1:cache", 42)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            WriteId.parse("17")

    def test_next_increments_seqno(self):
        assert WriteId("c", 1).next() == WriteId("c", 2)

    def test_follows_same_client_only(self):
        assert WriteId("c", 2).follows(WriteId("c", 1))
        assert not WriteId("c", 1).follows(WriteId("c", 2))
        assert not WriteId("d", 2).follows(WriteId("c", 1))


class TestVectorClock:
    def test_empty_clock_reads_zero(self):
        assert VectorClock().get("anyone") == 0

    def test_advance_is_monotone(self):
        vc = VectorClock()
        vc.advance("a", 5)
        vc.advance("a", 3)
        assert vc.get("a") == 5

    def test_record_wid(self):
        vc = VectorClock()
        vc.record(WriteId("a", 2))
        assert vc.includes(WriteId("a", 1))
        assert vc.includes(WriteId("a", 2))
        assert not vc.includes(WriteId("a", 3))

    def test_dominates(self):
        big = VectorClock({"a": 3, "b": 2})
        small = VectorClock({"a": 1})
        assert big.dominates(small)
        assert not small.dominates(big)
        assert big.dominates(big)

    def test_empty_dominated_by_all(self):
        assert VectorClock({"a": 1}).dominates(VectorClock())
        assert VectorClock().dominates(VectorClock())

    def test_concurrent(self):
        left = VectorClock({"a": 2})
        right = VectorClock({"b": 1})
        # Concurrent: neither clock dominates the other.
        assert not left.dominates(right) and not right.dominates(left)
        assert left.dominates(left)

    def test_equality_ignores_zero_entries(self):
        assert VectorClock({"a": 1, "b": 0}) == VectorClock({"a": 1})

    def test_constructor_none_and_empty_give_empty_clock(self):
        assert VectorClock(None) == VectorClock({}) == VectorClock()
        assert VectorClock(None).as_dict() == {}

    @given(clock_dicts, clock_dicts)
    def test_merged_dominates_both(self, left, right):
        a, b = VectorClock(left), VectorClock(right)
        merged = a.merged(b)
        assert merged.dominates(a)
        assert merged.dominates(b)

    @given(clock_dicts, clock_dicts)
    def test_merge_commutative(self, left, right):
        assert VectorClock(left).merged(VectorClock(right)) == \
            VectorClock(right).merged(VectorClock(left))

    @given(clock_dicts, clock_dicts, clock_dicts)
    def test_merge_associative(self, x, y, z):
        a, b, c = VectorClock(x), VectorClock(y), VectorClock(z)
        assert a.merged(b).merged(c) == a.merged(b.merged(c))

    @given(clock_dicts)
    def test_merge_idempotent(self, entries):
        vc = VectorClock(entries)
        assert vc.merged(vc) == vc

    @given(clock_dicts, clock_dicts)
    def test_dominance_antisymmetry_means_equality(self, left, right):
        a, b = VectorClock(left), VectorClock(right)
        if a.dominates(b) and b.dominates(a):
            assert a == b

    @given(clock_dicts)
    def test_as_dict_roundtrip(self, entries):
        vc = VectorClock(entries)
        assert VectorClock(vc.as_dict()) == vc

    def test_constructor_copies_its_dict(self):
        entries = {"a": 1}
        vc = VectorClock(entries)
        entries["a"] = 5
        assert vc.get("a") == 1

    @given(clock_dicts)
    def test_copy_is_independent(self, entries):
        vc = VectorClock(entries)
        copy = vc.copy()
        copy.advance("zz", 99)
        assert vc.get("zz") == 0
