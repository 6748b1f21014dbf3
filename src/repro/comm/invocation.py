"""Marshalled method invocations.

A defining property of the Globe composition is that replication and
communication objects never see semantics-object state or methods: they
operate only on *invocation messages* in which the method identifier and
parameters have been encoded.  This module is that encoding.

An invocation is a :class:`MarshalledInvocation`, a named tuple, so
every layer keys on the value itself: hashing and equality run over its
four fields in C.  :func:`encode_invocation` turns one into the wire
dict and :func:`decode_invocation` turns that dict back into the same
value.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple


class InvocationCodecError(ValueError):
    """Raised when an invocation message cannot be decoded."""


class MarshalledInvocation(NamedTuple):
    """A method call reduced to data: name, positional and keyword args.

    ``kwargs`` holds the keyword arguments as ``(name, value)`` pairs
    sorted by name.  ``read_only`` tags whether the invocation modifies
    semantics state; the control object uses it to route reads locally
    and writes through the replication object.
    """

    method: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    read_only: bool = True

    def kwargs_dict(self) -> Dict[str, Any]:
        """The keyword arguments as a plain dict."""
        return dict(self.kwargs)


def encode_invocation(invocation: MarshalledInvocation) -> Dict[str, Any]:
    """Encode an invocation into a wire-friendly dict."""
    return {
        "method": invocation.method,
        "args": list(invocation.args),
        "kwargs": dict(invocation.kwargs),
        "read_only": invocation.read_only,
    }


def decode_invocation(encoded: Dict[str, Any]) -> MarshalledInvocation:
    """Decode a dict produced by :func:`encode_invocation`."""
    try:
        method = encoded["method"]
        args = encoded.get("args", ())
        kwargs = encoded.get("kwargs")
        # Exact types, as the body-sizing walk matches them.
        if type(args) not in (list, tuple) or not (
                kwargs is None or type(kwargs) is dict):
            raise TypeError("args must be a list, kwargs a dict or None")
        # The empty case (every positional-only protocol call) sorts and
        # allocates nothing.
        invocation = MarshalledInvocation(
            method, tuple(args),
            tuple(sorted(kwargs.items())) if kwargs else (),
            bool(encoded.get("read_only", True)))
    except (TypeError, KeyError) as exc:
        raise InvocationCodecError(f"malformed invocation {encoded!r}") from exc
    if not isinstance(method, str) or not method:
        raise InvocationCodecError(f"invalid method name {method!r}")
    return invocation
