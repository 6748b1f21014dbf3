"""Wire messages and payload size accounting.

Messages are small typed envelopes.  The ``kind`` string is the protocol
message name (``"update"``, ``"demand_update"``, ``"invalidate"`` ...); the
``body`` dict carries protocol fields as plain data -- dicts, lists,
tuples, strings, bytes, numbers, booleans and ``None``.  A message is a
store's only input: clients marshal method calls into such bodies, and
stores exchange nothing else among themselves.  Size is estimated
structurally so that traffic statistics reflect partial-vs-full transfer
choices without a real serializer; a body that is not plain data fails
at sizing.

Sizing is on the per-datagram hot path (every send crosses it), and a
multicast hands one message object to every receiver, so work that is a
function of the message alone is done once and kept.  Four caches:

- :func:`estimate_size` dispatches on the *exact* type first (one dict
  lookup for the scalar types) and inlines string/number sizing inside
  the dict and list walks, so a typical protocol body costs a handful of
  Python-level calls instead of one recursive call per leaf;
- each :class:`Message` computes its size once, on first use, and serves
  :meth:`Message.payload_size` from the cached value afterwards (bodies
  are treated as frozen once built -- nothing in the stack mutates a
  message after handing it to the transport).  Set by ``payload_size``
  itself, or pre-seeded by a *sender* that assembled the size
  arithmetically;
- the fixed envelope cost of a message *kind* (``ENVELOPE_OVERHEAD`` plus
  the encoded kind string) is cached per kind, since the protocol uses a
  small closed set of kind names;
- ``Message._memo`` is the *receivers'* slot: whatever the first
  receiver decoded from the (frozen) body, parked for the other
  receivers of the same multicast.  Only the handler of the message's
  kind sets it, only with a value that is a function of the body alone
  and that nobody mutates afterwards, and this module never looks inside
  (it must not learn what a write record is).  Senders leave it ``None``.
  On the in-process backends the receivers of one fan-out therefore
  share one decoded value; across a socket every process unpickles its
  own message and fills its own slot.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

_msg_counter = itertools.count(1)

#: Fixed per-message envelope overhead, bytes (headers, framing).
ENVELOPE_OVERHEAD = 64

#: Size of scalar values by exact type: the single-lookup fast path.
_SCALAR_SIZES = {type(None): 1, bool: 1, int: 8, float: 8}

#: Per-kind envelope cost (``ENVELOPE_OVERHEAD`` + encoded kind string),
#: filled lazily; the protocol's kind vocabulary is a small closed set.
_KIND_COSTS: Dict[str, int] = {}


def estimate_size(value: Any) -> int:
    """Structural size estimate of a plain-data payload, in bytes.

    A ``str`` counts its UTF-8 bytes and ``bytes`` its length; ``None``
    and ``bool`` count 1, ``int`` and ``float`` 8; a dict item costs 2
    plus its key and its value, a list or tuple element 2 plus the
    element.  Types are matched exactly, and any other value (a nested
    :class:`Message`, a set, a dataclass, ...) raises ``TypeError``.
    Good enough for relative traffic comparisons between full and
    partial transfers.
    """
    kind = type(value)
    if kind is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    scalar = _SCALAR_SIZES.get(kind)
    if scalar is not None:
        return scalar
    if kind is dict:
        total = 0
        for key, item in value.items():
            total += 2
            item_kind = type(key)
            if item_kind is str:
                total += (len(key) if key.isascii()
                          else len(key.encode("utf-8")))
            else:
                total += estimate_size(key)
            item_kind = type(item)
            if item_kind is str:
                total += (len(item) if item.isascii()
                          else len(item.encode("utf-8")))
            elif item_kind is int or item_kind is float:
                total += 8
            else:
                total += estimate_size(item)
        return total
    if kind is list or kind is tuple:
        total = 0
        for item in value:
            total += 2
            item_kind = type(item)
            if item_kind is str:
                total += (len(item) if item.isascii()
                          else len(item.encode("utf-8")))
            elif item_kind is int or item_kind is float:
                total += 8
            else:
                total += estimate_size(item)
        return total
    if kind is bytes:
        return len(value)
    raise TypeError(f"message bodies are plain data, not {kind.__name__}")


def envelope_cost(kind: str) -> int:
    """The fixed envelope cost of one message kind, in bytes.

    ``ENVELOPE_OVERHEAD`` plus the encoded kind string, cached per kind.
    Senders that assemble a message's total size arithmetically (caching
    each part) use it instead of walking the finished body;
    ``Message.payload_size`` always equals ``envelope_cost(kind) +
    estimate_size(body)``.
    """
    cost = _KIND_COSTS.get(kind)
    if cost is None:
        cost = _KIND_COSTS[kind] = ENVELOPE_OVERHEAD + estimate_size(kind)
    return cost


class Message:
    """A typed protocol message.

    A plain ``__slots__`` class rather than a dataclass: one message is
    built per protocol datagram, and the hand-written ``__init__`` (four
    stores plus a counter bump) keeps construction off the profile.
    Messages are envelopes, not values -- identity comparison is the
    only equality the protocol ever needs.

    Attributes
    ----------
    kind:
        Protocol message name; replication objects dispatch on it.
    body:
        Protocol fields.  Treated as frozen once the message is built:
        the wire size is computed once and cached, so mutating the body
        afterwards would desynchronize it from the reported size.
    msg_id:
        Unique id, assigned at construction; used to correlate replies.
    reply_to:
        The ``msg_id`` of the request this message answers, if any.
    """

    __slots__ = ("kind", "body", "msg_id", "reply_to", "_size", "_memo")

    def __init__(
        self,
        kind: str,
        body: Optional[Dict[str, Any]] = None,
        msg_id: Optional[int] = None,
        reply_to: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.body = {} if body is None else body
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id
        self.reply_to = reply_to
        self._size: Optional[int] = None
        #: Receiver-side decode memo (see the module docstring).
        self._memo: Any = None

    def payload_size(self) -> int:
        """Estimated wire size including envelope overhead.

        Computed once per message (first use) and cached; a retry that
        re-sends the same message re-reads the cached size.  Senders that
        can derive the size arithmetically (the client read path, a
        store's reply table) may pre-seed the cache instead.
        """
        size = self._size
        if size is None:
            size = envelope_cost(self.kind) + estimate_size(self.body)
            self._size = size
        return size

    def reply(self, kind: str, body: Optional[Dict[str, Any]] = None) -> "Message":
        """Build a response message correlated to this one."""
        return Message(kind=kind, body=body or {}, reply_to=self.msg_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ",".join(sorted(self.body))
        return f"Message({self.kind}#{self.msg_id} body[{keys}])"
