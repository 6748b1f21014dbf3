"""Write records: the unit of replication.

Every state-modifying invocation accepted into the system becomes a
:class:`WriteRecord`.  The record carries whatever ordering metadata the
object's coherence model needs -- the WiD always, a global sequence number
under sequential consistency, a dependency vector under causal consistency
or writes-follow-reads sessions -- plus the marshalled invocation itself so
replicas can replay it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.comm.invocation import MarshalledInvocation, decode_invocation, encode_invocation
from repro.core.ids import WriteId
from repro.coherence.vector_clock import VectorClock


@dataclasses.dataclass(frozen=True)
class WriteRecord:
    """One write, as shipped between replication objects.

    Frozen: on the in-process backends every replica reached by one
    multicast logs the *same* record objects (the update is decoded once
    per message, not once per receiver), so a record must not change
    after it is built; the accepting store stamps a copy
    (``WritePath.stamp``).  Frozen construction is slower per object,
    which decoding once per message pays for many times over.

    Attributes
    ----------
    wid:
        The write identifier ``(client_id, seqno)`` of Section 4.2.
    invocation:
        The marshalled state-modifying method call.
    touched:
        State keys the write modifies; drives partial coherence transfer.
    deps:
        Dependency vector (causal model / writes-follow-reads sessions).
        ``None`` means no dependencies beyond the model's own ordering.
    global_seq:
        Total-order position assigned by the sequencer under the
        sequential model; ``None`` otherwise.
    timestamp:
        Origin virtual time; last-writer-wins tiebreak under eventual.
    origin:
        Address of the store that first accepted the write.
    """

    wid: WriteId
    invocation: MarshalledInvocation
    touched: Tuple[str, ...] = ()
    deps: Optional[VectorClock] = None
    global_seq: Optional[int] = None
    timestamp: float = 0.0
    origin: str = ""

    def to_wire(self) -> Dict[str, Any]:
        """Encode for embedding in a message body."""
        return {
            "wid": str(self.wid),
            "invocation": encode_invocation(self.invocation),
            "touched": list(self.touched),
            "deps": self.deps.as_dict() if self.deps is not None else None,
            "global_seq": self.global_seq,
            "timestamp": self.timestamp,
            "origin": self.origin,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "WriteRecord":
        """Decode a record embedded in a message body."""
        deps = wire.get("deps")
        return cls(
            wid=WriteId.parse(wire["wid"]),
            invocation=decode_invocation(wire["invocation"]),
            touched=tuple(wire.get("touched", ())),
            deps=VectorClock(deps) if deps is not None else None,
            global_seq=wire.get("global_seq"),
            timestamp=float(wire.get("timestamp", 0.0)),
            origin=wire.get("origin", ""),
        )
