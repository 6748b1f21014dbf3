"""Tests for the sweep-payload serialiser (``repro.exec.codec``)."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec.codec import CodecError, decode_result, encode_result


def roundtrip(value):
    return decode_result(encode_result(value))


class TestRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False,
        0, 1, -1, 2**62, -(2**62), 2**100, -(2**100),
        0.0, -0.0, 1.5, -2.25, 1e308, 5e-324,
        "", "plain", "χ² ≤ ∞ ☃",
        b"", b"\x00\xffraw",
        [], (), {}, [1, "two", 3.0, None], (True, [2], {"k": (3,)}),
        {"a": 1, "b": [2.5], "c": {"d": None}},
    ])
    def test_plain_data(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_signed_zero_and_specials_survive(self):
        assert math.copysign(1.0, roundtrip(-0.0)) == -1.0
        assert roundtrip(float("inf")) == float("inf")
        assert math.isnan(roundtrip(float("nan")))

    def test_float_arrays_keep_container_type(self):
        floats = [0.1 * i for i in range(100)]
        assert roundtrip(floats) == floats
        assert roundtrip(tuple(floats)) == tuple(floats)

    def test_int_arrays_keep_container_type(self):
        ints = list(range(-50, 50))
        assert roundtrip(ints) == ints
        assert roundtrip(tuple(ints)) == tuple(ints)

    def test_mixed_and_oversized_int_sequences_fall_back(self):
        mixed = [1, 2.0, "three", None, True] * 10
        assert roundtrip(mixed) == mixed
        huge = [2**70] * 10
        assert roundtrip(huge) == huge

    def test_bools_never_masquerade_as_array_ints(self):
        flags = [True, False, True, False, True]
        result = roundtrip(flags)
        assert result == flags
        assert all(type(item) is bool for item in result)

    def test_bytearray_round_trips_as_bytearray(self):
        # Decoding a mutable buffer as bytes would silently freeze it.
        value = {"buf": bytearray(b"mutable")}
        result = roundtrip(value)
        assert result == value
        assert type(result["buf"]) is bytearray

    def test_dict_insertion_order_preserved(self):
        mapping = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(mapping)) == ["z", "a", "m"]

    def test_non_string_dict_keys(self):
        mapping = {("strategy", 4): 1.5, 7: "seven"}
        assert roundtrip(mapping) == mapping

    def test_arbitrary_objects_ride_pickle_frames(self):
        value = {"metrics": Metrics(3, [1.0, 2.0]), "n": 3}
        result = roundtrip(value)
        assert result["metrics"] == Metrics(3, [1.0, 2.0])
        assert result["n"] == 3


class TestDeterminism:
    def test_same_value_same_bytes(self):
        value = {"samples": [0.5 * i for i in range(64)],
                 "nested": {"k": (1, 2, 3)}}
        assert encode_result(value) == encode_result(value)

    def test_reencode_after_roundtrip_is_identical(self):
        value = {"a": [1.0] * 32, "b": {"c": "x", "d": 2**80}}
        blob = encode_result(value)
        assert encode_result(decode_result(blob)) == blob

    def test_bytes_ignore_object_sharing(self):
        samples = [1.0, 2.0]
        shared = Metrics(1, [samples, samples])
        assert encode_result(shared) == encode_result(
            Metrics(1, [samples, list(samples)]))

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8)
        | st.builds(lambda count, samples: Metrics(count, [samples, samples]),
                    st.integers(), st.lists(st.floats(), max_size=4)),
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    ))
    def test_encoding_is_canonical(self, value):
        blob = encode_result(value)
        assert encode_result(decode_result(blob)) == blob
        assert encode_result(unshared(value)) == blob


class TestStrictDecode:
    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            decode_result(b"NOPE" + b"N")

    def test_empty_input_rejected(self):
        with pytest.raises(CodecError):
            decode_result(b"")

    def test_truncated_payload_rejected(self):
        blob = encode_result([1.0] * 100)
        with pytest.raises(CodecError):
            decode_result(blob[:-5])

    def test_trailing_garbage_rejected(self):
        blob = encode_result({"a": 1})
        with pytest.raises(CodecError):
            decode_result(blob + b"junk")

    def test_old_codec_payload_rejected(self):
        # The retired hand-written format: magic, then a dict tag.
        with pytest.raises(CodecError):
            decode_result(b"RXC1m\x00\x00\x00\x00")

    def test_corrupt_pickle_frame_rejected(self):
        blob = bytearray(encode_result(Metrics(1, [2.0])))
        # The final byte is pickle's STOP opcode; 0x00 is not a valid
        # opcode, so loading must fail loudly.
        blob[-1] = 0x00
        with pytest.raises(CodecError):
            decode_result(bytes(blob))


@dataclasses.dataclass
class Metrics:
    """Module-level stand-in for RunMetrics-style payloads (picklable)."""

    count: int
    samples: list


def unshared(value):
    """An equal copy of ``value`` in which no two parts share an object."""
    if isinstance(value, Metrics):
        return Metrics(value.count, unshared(value.samples))
    if isinstance(value, (list, tuple)):
        return type(value)(unshared(item) for item in value)
    if isinstance(value, dict):
        return {unshared(key): unshared(item) for key, item in value.items()}
    if isinstance(value, str):
        return value.encode("utf-8").decode("utf-8")
    return value
