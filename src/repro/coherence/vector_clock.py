"""Vector clocks / version vectors.

One class serves both uses in the framework:

- as a **version vector** at a store, mapping each writing client to the
  highest sequence number of that client's writes applied so far;
- as a **dependency vector** on a write or a session, naming the writes
  that must be applied before it.

Entries are per-client sequence numbers, matching the paper's
``expected_write[client]`` state (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.ids import WriteId


class VectorClock:
    """A mapping from client id to last-seen sequence number.

    Built from a message-embedded dict, which it copies (``None`` or
    ``{}`` gives the empty clock).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[str, int]] = None) -> None:
        self._entries: Dict[str, int] = dict(entries) if entries else {}

    # -- access ---------------------------------------------------------------

    def get(self, client_id: str) -> int:
        """Sequence number recorded for a client (0 if never seen)."""
        return self._entries.get(client_id, 0)

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate over (client_id, seqno) pairs with non-zero entries."""
        return iter(self._entries.items())

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict copy, for embedding in messages."""
        return dict(self._entries)

    def view(self) -> Dict[str, int]:
        """The entries themselves, uncopied: for a clock no one mutates."""
        return self._entries

    def copy(self) -> "VectorClock":
        """Independent copy."""
        clone = VectorClock.__new__(VectorClock)
        clone._entries = self._entries.copy()
        return clone

    # -- mutation ---------------------------------------------------------------

    def advance(self, client_id: str, seqno: int) -> None:
        """Raise a client's entry to at least ``seqno``."""
        if seqno > self._entries.get(client_id, 0):
            self._entries[client_id] = seqno

    def record(self, wid: WriteId) -> None:
        """Advance by a write identifier."""
        self.advance(wid.client_id, wid.seqno)

    def merge(self, other: VectorClock | Dict[str, int]) -> bool:
        """Pointwise maximum, in place.

        ``other`` may be a message's plain version dict, read in place.
        Returns whether any entry advanced, so callers keeping a derived
        cache (the session wire form) can skip a no-op's invalidation.
        """
        entries = self._entries
        changed = False
        other_entries = other if type(other) is dict else other._entries
        for client_id, seqno in other_entries.items():
            if seqno > entries.get(client_id, 0):
                entries[client_id] = seqno
                changed = True
        return changed

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum, as a new clock."""
        result = self.copy()
        result.merge(other)
        return result

    # -- comparison -----------------------------------------------------------

    def dominates(self, other: "VectorClock") -> bool:
        """True if every entry of ``other`` is <= the matching entry here."""
        entries = self._entries
        for client_id, seqno in other._entries.items():
            if seqno > entries.get(client_id, 0):
                return False
        return True

    def includes(self, wid: WriteId) -> bool:
        """Whether the write identified by ``wid`` is covered."""
        return self._entries.get(wid.client_id, 0) >= wid.seqno

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        mine = {k: v for k, v in self._entries.items() if v}
        theirs = {k: v for k, v in other._entries.items() if v}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v) for k, v in self._entries.items() if v)))

    def __repr__(self) -> str:
        inner = ",".join(f"{k}:{v}" for k, v in sorted(self._entries.items()))
        return f"VC<{inner}>"
