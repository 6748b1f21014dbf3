"""The write path: accept, forward, stamp, acknowledge.

One of the four protocol components behind the
:class:`~repro.replication.engine.StoreReplicationObject` façade.  The
write path decides where a write is *accepted* (the primary, or any store
for eventual multi-writer objects), forwards non-local writes upstream,
stamps accepted records (touched keys, origin, timestamp and -- for the
sequential sequencer -- the global sequence number), enforces the
single-writer discipline, and owns the pending-acknowledgement table that
pairs accepted writes with the client requests awaiting them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.coherence.models import CoherenceModel
from repro.coherence.records import WriteRecord
from repro.comm.message import Message
from repro.core.ids import WriteId
from repro.obs import tracer as _obs
from repro.replication import messages as mk
from repro.replication.policy import WriteSet
from repro.sim.future import Future


class WritePath:
    """Accept/forward/stamp component of one store's protocol stack."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: Accepted-but-unacknowledged writes: wid -> (src, request).
        self.pending_acks: Dict[WriteId, Tuple[str, Message]] = {}
        #: Next global sequence number (primary under sequential coherence).
        self.next_global = 1

    # -- inbound --------------------------------------------------------------

    def on_write(self, src: str, message: Message) -> None:
        """A client (or downstream store) submitted a write."""
        engine = self.engine
        record = WriteRecord.from_wire(message.body["record"])
        session = message.body.get("session", {})
        # Duplicate (client retry after a lost ack): acknowledge idempotently.
        if engine.ordering.incorporated(record.wid):
            self.ack(src, message, record.wid)
            return
        self.accept_or_forward(record, session, src, message)

    # -- accept or forward ----------------------------------------------------

    def accept_or_forward(
        self,
        record: WriteRecord,
        session: Dict[str, Any],
        src: str,
        request: Message,
    ) -> None:
        """Route one write: accept it here or relay it to the parent."""
        engine = self.engine
        accepts_here = engine.is_primary or (
            engine.policy.model is CoherenceModel.EVENTUAL
            and engine.policy.write_set is WriteSet.MULTIPLE
        )
        if _obs.ACTIVE is not None:
            keys = tuple(engine.control.touched_keys(record.invocation))
            _obs.ACTIVE.event(
                engine.clock.now, "repl.write",
                node=engine.address,
                obj=keys[0] if keys else None,
                decision="accept" if accepts_here else "forward",
                wid=str(record.wid),
                strategy=engine.strategy_label,
            )
        if not accepts_here:
            self._forward(record, session, src, request)
            return
        error = self.writer_check(record.wid.client_id)
        if error is not None:
            self.fail(src, request, error)
            return
        record = self.stamp(record)
        self.pending_acks[record.wid] = (src, request)
        engine.ingest_records((record,), skip=None)

    def _forward(
        self,
        record: WriteRecord,
        session: Dict[str, Any],
        src: str,
        request: Message,
    ) -> None:
        engine = self.engine
        body = {"record": record.to_wire(), "session": session}
        engine.counters["tx:write-forward"] += 1
        upstream = engine.comm.request(engine.parent,
                                          Message(mk.WRITE, body))

        def relay(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException as exc:
                self.fail(src, request, str(exc))
                return
            if reply.kind == mk.ERROR:
                self.fail(src, request,
                          reply.body.get("error", "write failed"))
                return
            engine.comm.reply(
                src,
                Message(reply.kind, dict(reply.body), reply_to=request.msg_id),
            )

        upstream.add_callback(relay)

    def writer_check(self, client_id: str) -> Optional[str]:
        """Single-writer enforcement; returns the error text, if any."""
        engine = self.engine
        if engine.policy.write_set is WriteSet.MULTIPLE:
            return None
        if engine.allowed_writer is None:
            engine.allowed_writer = client_id
        if client_id != engine.allowed_writer:
            return (
                f"single-writer object: {client_id} is not the designated "
                f"writer {engine.allowed_writer}"
            )
        return None

    def stamp(self, record: WriteRecord) -> WriteRecord:
        """The accepted record with this store's metadata stamped on."""
        engine = self.engine
        global_seq = record.global_seq
        if (
            engine.policy.model is CoherenceModel.SEQUENTIAL
            and engine.is_primary
            and global_seq is None
        ):
            global_seq = self.next_global
            self.next_global += 1
        return dataclasses.replace(
            record,
            touched=tuple(engine.control.touched_keys(record.invocation)),
            timestamp=engine.clock.now,
            origin=engine.address,
            global_seq=global_seq,
        )

    # -- acknowledgement ------------------------------------------------------

    def ack(self, src: str, request: Message, wid: WriteId) -> None:
        """Acknowledge one write to its submitter."""
        engine = self.engine
        body = {
            "wid": str(wid),
            "version": engine.ordering.applied.as_dict(),
            "store": engine.address,
        }
        engine.counters["tx:write_ack"] += 1
        engine.comm.reply(src, request.reply(mk.WRITE_ACK, body))

    def settle_ack(self, wid: WriteId) -> None:
        """Acknowledge a write whose fate is now decided (applied/dropped)."""
        pending = self.pending_acks.pop(wid, None)
        if pending is None:
            return
        src, request = pending
        self.ack(src, request, wid)

    def fail(self, src: str, request: Message, error: str) -> None:
        """Report one write's failure to its submitter."""
        engine = self.engine
        engine.counters["tx:error"] += 1
        engine.comm.reply(src, request.reply(mk.ERROR, {"error": error}))
