"""The one serialiser for sweep-point payloads.

Per-point results travel twice: in the hub's digest-checked ``result``
frames and into the on-disk :class:`~repro.exec.cache.ResultCache`.
Both carry the bytes of :func:`encode_result`, a protocol-5 pickle
written in the pickler's ``fast`` mode: no memo, so the bytes depend on
the value alone and never on which of its parts share one object.  That
is what keeps a cache tree byte-identical whatever worker computed it.

A payload must not hold a ``set`` or ``frozenset``: their iteration
order follows ``PYTHONHASHSEED``, which a remote worker does not share.
:func:`decode_result` is strict -- any load failure or trailing byte
raises :class:`CodecError`, so a corrupt cache entry or wire frame is
always detected.
"""

from __future__ import annotations

import io
import pickle
from typing import Any


class CodecError(ValueError):
    """An encoded payload is malformed, truncated, or has trailing data."""


def encode_result(value: Any) -> bytes:
    """Encode one sweep-point payload to its canonical byte form."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, 5)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


def decode_result(blob: bytes) -> Any:
    """Decode a payload produced by :func:`encode_result` (strict)."""
    buffer = io.BytesIO(blob)
    try:
        value = pickle.Unpickler(buffer).load()
    except Exception as exc:  # unpickling can raise nearly anything
        raise CodecError(f"payload failed to load: {exc!r}") from None
    trailing = len(buffer.read())
    if trailing:
        raise CodecError(f"{trailing} trailing bytes after the root value")
    return value
