"""Marshalled method invocations.

A defining property of the Globe composition is that replication and
communication objects never see semantics-object state or methods: they
operate only on *invocation messages* in which the method identifier and
parameters have been encoded.  This module is that encoding.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class InvocationCodecError(ValueError):
    """Raised when an invocation message cannot be decoded."""


class MarshalledInvocation:
    """A method call reduced to data: name, positional and keyword args.

    ``read_only`` tags whether the invocation modifies semantics state;
    the control object uses it to route reads locally and writes through
    the replication object.

    Semantically a frozen value object (equality and hashing over all
    four fields); implemented as a plain ``__slots__`` class because one
    is created per invocation on the hot path, where the generated
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per field)
    measurably dominates.
    """

    __slots__ = ("method", "args", "kwargs", "read_only")

    def __init__(
        self,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Tuple[Tuple[str, Any], ...] = (),
        read_only: bool = True,
    ) -> None:
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.read_only = read_only

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarshalledInvocation):
            return NotImplemented
        return (
            self.method == other.method
            and self.args == other.args
            and self.kwargs == other.kwargs
            and self.read_only == other.read_only
        )

    def __hash__(self) -> int:
        return hash((self.method, self.args, self.kwargs, self.read_only))

    def __repr__(self) -> str:
        return (
            f"MarshalledInvocation(method={self.method!r}, args={self.args!r},"
            f" kwargs={self.kwargs!r}, read_only={self.read_only!r})"
        )

    def kwargs_dict(self) -> Dict[str, Any]:
        """The keyword arguments as a plain dict."""
        return dict(self.kwargs)


def encode_invocation(
    method: str,
    *args: Any,
    read_only: bool = True,
    **kwargs: Any,
) -> Dict[str, Any]:
    """Encode a method call into a wire-friendly dict."""
    return {
        "method": method,
        "args": list(args),
        "kwargs": dict(kwargs),
        "read_only": read_only,
    }


def decode_invocation(encoded: Dict[str, Any]) -> MarshalledInvocation:
    """Decode a dict produced by :func:`encode_invocation`."""
    try:
        method = encoded["method"]
        args = tuple(encoded.get("args", ()))
        raw_kwargs = encoded.get("kwargs")
        if isinstance(raw_kwargs, dict):
            # ``sorted`` reads the mapping without mutating it, so the
            # defensive ``dict()`` copy is skipped; the empty case (every
            # positional-only protocol call) allocates nothing.
            kwargs = tuple(sorted(raw_kwargs.items())) if raw_kwargs else ()
        elif raw_kwargs is None:
            kwargs = ()
        else:
            kwargs = tuple(sorted(dict(raw_kwargs).items()))
        read_only = bool(encoded.get("read_only", True))
    except (TypeError, KeyError) as exc:
        raise InvocationCodecError(f"malformed invocation {encoded!r}") from exc
    if not isinstance(method, str) or not method:
        raise InvocationCodecError(f"invalid method name {method!r}")
    return MarshalledInvocation(
        method=method, args=args, kwargs=kwargs, read_only=read_only
    )
