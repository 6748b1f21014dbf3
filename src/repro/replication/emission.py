"""Coherence emission: what one coherence transmission carries.

One of the four protocol components behind the
:class:`~repro.replication.engine.StoreReplicationObject` façade.  Given a
set of targets and the records to cover, this component shapes the actual
wire traffic from the policy's propagation and coherence-transfer-type
parameters: a bare change notification, an invalidation (full or keyed),
a full-state snapshot, or per-record update batches -- in every case one
message, built once and multicast to all targets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.coherence.records import WriteRecord
from repro.comm.message import Message
from repro.obs import tracer as _obs
from repro.replication import messages as mk
from repro.replication.policy import CoherenceTransfer, Propagation


class CoherenceEmitter:
    """What-goes-on-the-wire component of one store's protocol stack."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def emit(
        self, targets: Sequence[str], records: Sequence[WriteRecord]
    ) -> None:
        """One coherence transmission, shaped by propagation + transfer type."""
        engine = self.engine
        if engine.policy.coherence_transfer is CoherenceTransfer.NOTIFICATION:
            message = Message(
                mk.NOTIFY, {"version": engine.ordering.applied.as_dict()}
            )
            engine.counters["tx:notify"] += len(targets)
            self._trace_emit("notify", targets)
            engine.comm.multicast(targets, message)
            return
        if engine.policy.propagation is Propagation.INVALIDATE:
            keys: Optional[List[str]] = None
            if engine.policy.coherence_transfer is CoherenceTransfer.PARTIAL:
                touched: Set[str] = set()
                for record in records:
                    touched.update(record.touched)
                keys = sorted(touched)
            message = Message(
                mk.INVALIDATE,
                {"keys": keys, "version": engine.ordering.applied.as_dict()},
            )
            engine.counters["tx:invalidate"] += len(targets)
            self._trace_emit("invalidate", targets)
            engine.comm.multicast(targets, message)
            return
        if engine.policy.coherence_transfer is CoherenceTransfer.FULL:
            message = Message(mk.UPDATE_FULL, self.snapshot_body())
            engine.counters["tx:update_full"] += len(targets)
            self._trace_emit("update_full", targets)
            engine.comm.multicast(targets, message)
            return
        message = Message(
            mk.UPDATE, {"records": [r.to_wire() for r in records]}
        )
        engine.counters["tx:update"] += len(targets)
        self._trace_emit("update", targets, records=len(records))
        engine.comm.multicast(targets, message)

    def _trace_emit(
        self, message: str, targets: Sequence[str], **detail: Any
    ) -> None:
        """Emit one ``repl.emit`` trace event (no-op when tracing is off)."""
        if _obs.ACTIVE is None:
            return
        engine = self.engine
        _obs.ACTIVE.event(
            engine.clock.now, "repl.emit",
            node=engine.address,
            message=message, targets=len(targets),
            strategy=engine.strategy_label, **detail,
        )

    def send_update(
        self, target: str, records: Sequence[WriteRecord]
    ) -> None:
        """Gossip a batch of write records up to one peer (the parent)."""
        engine = self.engine
        message = Message(
            mk.UPDATE, {"records": [r.to_wire() for r in records]}
        )
        engine.counters["tx:update"] += 1
        self._trace_emit("update", (target,), records=len(records))
        engine.comm.send(target, message)

    def snapshot_body(self) -> Dict[str, Any]:
        """The full-state transfer body (UPDATE_FULL / full DEMAND_REPLY)."""
        engine = self.engine
        return {
            "state": engine.control.semantics_snapshot(),
            "version": engine.ordering.applied.as_dict(),
            **engine.ordering.transfer_fields(),
        }
