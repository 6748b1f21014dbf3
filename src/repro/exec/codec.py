"""Compact binary codec for sweep-point payloads.

Per-point results travel twice: through the worker pool's result pipe
and into the on-disk :class:`~repro.exec.cache.ResultCache`.  Both paths
used to pay generic pickling for every value; this codec gives the large
artifacts sweep points actually produce -- traces, coherence records,
per-metric sample arrays -- a dense, deterministic binary form:

- plain data (``None``/``bool``/``int``/``float``/``str``/``bytes`` and
  nested ``list``/``tuple``/``dict``) is encoded natively with
  fixed-width tags;
- homogeneous numeric sequences (the per-metric sample arrays) are
  packed as one contiguous ``struct`` block -- eight bytes per element,
  no per-item tags -- which is where the pipe and disk bytes go;
- anything else (e.g. a ``RunMetrics`` dataclass) falls back to an
  embedded pickle frame, so the codec is universal without giving up
  the fast paths.

Encoding is deterministic: the same value always produces the same
bytes (dict insertion order is preserved through a round trip), which
is what lets the golden tests assert cache-entry *byte* equality across
worker counts.  :func:`decode_result` is strict -- any malformed,
truncated or trailing input raises :class:`CodecError` rather than
returning a partial value, so a corrupt cache entry or wire frame is
always detected.
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from typing import Any, Tuple

#: Leading magic of every encoded payload ("Repro eXec Codec v1").
MAGIC = b"RXC1"

#: Minimum element count before a homogeneous numeric sequence is packed
#: as one contiguous block; shorter sequences stay per-item (the header
#: would not pay for itself).
_ARRAY_MIN = 4

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: Packed arrays are defined little-endian (the common native order, so
#: ``array`` conversion is one C memcpy); big-endian hosts byteswap.
_ARRAY_SWAP = sys.byteorder == "big"

#: Element sizes of the packed-array storage widths; integer arrays pick
#: the narrowest width that fits (version counters take one byte per
#: element instead of a fixed eight).
_ARRAY_ITEM_SIZE = {"b": 1, "h": 2, "i": 4, "q": 8, "d": 8}


def _pack_array(values, typecode: str) -> bytes:
    """One contiguous little-endian block for a homogeneous sequence."""
    packed = array(typecode, values)
    if _ARRAY_SWAP:
        packed.byteswap()
    return packed.tobytes()


class CodecError(ValueError):
    """An encoded payload is malformed, truncated, or has trailing data."""


def _encode_into(out: bytearray, value: Any) -> None:
    """Append the encoding of one value to ``out``."""
    # bool must be tested before int (it is an int subclass).
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out += b"i"
            out += _I64.pack(value)
        else:
            width = (value.bit_length() + 8) // 8
            out += b"I"
            out += _U32.pack(width)
            out += value.to_bytes(width, "big", signed=True)
    elif type(value) is float:
        out += b"d"
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(raw))
        out += raw
    elif type(value) is bytes:
        # bytearray deliberately falls through to the pickle frame:
        # tagging it as bytes would decode to the wrong (immutable)
        # type and break round-trip fidelity.
        out += b"b"
        out += _U32.pack(len(value))
        out += value
    elif type(value) in (list, tuple):
        container = b"l" if type(value) is list else b"t"
        if len(value) >= _ARRAY_MIN:
            # set(map(type, ...)) is one C pass; it decides homogeneity
            # (and excludes bool, a distinct type) without a slow
            # per-item python loop.
            kinds = set(map(type, value))
            if kinds == {float}:
                out += b"A" + b"d" + container + _U32.pack(len(value))
                out += _pack_array(value, "d")
                return
            if kinds == {int}:
                # Width selection by attempted C conversion, narrowest
                # first: ``array`` raises OverflowError on the first
                # out-of-range element, so the common case (all values
                # fit the first width tried) is a single C pass with no
                # python-level min/max scan.
                for typecode in ("b", "h", "i", "q"):
                    try:
                        packed = array(typecode, value)
                    except OverflowError:
                        continue
                    if _ARRAY_SWAP:
                        packed.byteswap()
                    out += (b"A" + typecode.encode("ascii")
                            + container + _U32.pack(len(value)))
                    out += packed.tobytes()
                    return
                # Falls through for bignums outside 64 bits.
        out += container
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif type(value) is dict:
        out += b"m"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        # Anything with behaviour (dataclasses, enums, user types) rides
        # an embedded pickle frame; the fast paths above stay exact.
        frame = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out += b"P"
        out += _U32.pack(len(frame))
        out += frame


def encode_result(value: Any) -> bytes:
    """Encode one sweep-point payload to its canonical byte form."""
    out = bytearray(MAGIC)
    _encode_into(out, value)
    return bytes(out)


# Integer tag constants: comparing small ints in the decode hot loop is
# measurably cheaper than one-byte bytes objects.
_T_NONE, _T_TRUE, _T_FALSE = ord("N"), ord("T"), ord("F")
_T_I64, _T_BIG, _T_F64 = ord("i"), ord("I"), ord("d")
_T_STR, _T_BYTES = ord("s"), ord("b")
_T_LIST, _T_TUPLE, _T_DICT = ord("l"), ord("t"), ord("m")
_T_ARRAY, _T_PICKLE = ord("A"), ord("P")


def _slice(blob: bytes, offset: int, count: int) -> int:
    """Bounds-check a ``count``-byte slice; return its end offset."""
    end = offset + count
    if end > len(blob):
        raise CodecError(
            f"truncated payload: needed {count} bytes at offset {offset}, "
            f"have {len(blob) - offset}"
        )
    return end


def _decode_from(blob: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; return (value, end).

    Ordered by payload frequency (dicts and strings dominate trace
    records); uses ``unpack_from`` so the hot path never slices.
    """
    tag = blob[offset]
    offset += 1
    if tag == _T_DICT:
        (count,) = _U32.unpack_from(blob, offset)
        offset += 4
        decode = _decode_from
        mapping = {}
        for _ in range(count):
            key, offset = decode(blob, offset)
            mapping[key], offset = decode(blob, offset)
        return mapping, offset
    if tag == _T_STR:
        (size,) = _U32.unpack_from(blob, offset)
        end = _slice(blob, offset + 4, size)
        try:
            return blob[offset + 4:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string payload: {exc}")
    if tag == _T_I64:
        value = _I64.unpack_from(blob, offset)[0]
        return value, offset + 8
    if tag == _T_F64:
        value = _F64.unpack_from(blob, offset)[0]
        return value, offset + 8
    if tag == _T_LIST or tag == _T_TUPLE:
        (count,) = _U32.unpack_from(blob, offset)
        offset += 4
        decode = _decode_from
        items = []
        append = items.append
        for _ in range(count):
            item, offset = decode(blob, offset)
            append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag == _T_ARRAY:
        typecode = chr(blob[offset])
        container = blob[offset + 1]
        offset += 2
        item_size = _ARRAY_ITEM_SIZE.get(typecode)
        if item_size is None or container not in (_T_LIST, _T_TUPLE):
            raise CodecError(
                f"unknown array header {typecode!r}/{chr(container)!r}"
            )
        (count,) = _U32.unpack_from(blob, offset)
        end = _slice(blob, offset + 4, item_size * count)
        unpacked = array(typecode)
        unpacked.frombytes(blob[offset + 4:end])
        if _ARRAY_SWAP:
            unpacked.byteswap()
        items = unpacked.tolist()
        return (items if container == _T_LIST else tuple(items)), end
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_BIG:
        (size,) = _U32.unpack_from(blob, offset)
        end = _slice(blob, offset + 4, size)
        return int.from_bytes(blob[offset + 4:end], "big",
                              signed=True), end
    if tag == _T_BYTES:
        (size,) = _U32.unpack_from(blob, offset)
        end = _slice(blob, offset + 4, size)
        return blob[offset + 4:end], end
    if tag == _T_PICKLE:
        (size,) = _U32.unpack_from(blob, offset)
        end = _slice(blob, offset + 4, size)
        try:
            return pickle.loads(blob[offset + 4:end]), end
        except Exception as exc:  # unpickling can raise nearly anything
            raise CodecError(f"embedded pickle frame failed to load: {exc}")
    raise CodecError(f"unknown tag {chr(tag)!r} at offset {offset - 1}")


def decode_result(blob: bytes) -> Any:
    """Decode a payload produced by :func:`encode_result` (strict)."""
    blob = bytes(blob)
    if blob[:4] != MAGIC:
        raise CodecError(
            f"bad magic {blob[:4]!r}; not a {MAGIC.decode()} payload"
        )
    try:
        value, offset = _decode_from(blob, 4)
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated or malformed payload: {exc}")
    if offset != len(blob):
        raise CodecError(
            f"{len(blob) - offset} trailing bytes after the root value"
        )
    return value
