"""The client-side replication object.

Pure-client address spaces hold no replica; their replication object
"only translates method calls to messages" (Section 4.2) -- plus the one
piece of client intelligence the paper adds: the session state for
client-based coherence models.  Reads carry the session's dependency
requirement (the paper's ``dependency = (WiD, store_id)`` generalized to a
vector); writes are stamped with a fresh WiD and, when the session demands
writes-follow-reads or the object is causal, a dependency vector.

A client may bind its reads and writes to *different* stores: the paper's
web master writes directly to the web server while reading from its cache.
"""

from __future__ import annotations

import functools
from array import array
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.coherence.models import CoherenceModel, SessionGuarantee
from repro.coherence.records import WriteRecord
from repro.coherence.session import SessionState
from repro.coherence.trace import TraceRecorder
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import MarshalledInvocation, encode_invocation
from repro.comm.message import Message, envelope_cost, estimate_size
from repro.core.interfaces import ReplicationObject
from repro.replication import messages as mk
from repro.replication.policy import ReplicationPolicy
from repro.sim.future import Future

#: A ``READ`` request's fixed size: envelope + 2 + len("invocation") + 2 +
#: len("session").  Tests pin request sizes to a fresh ``estimate_size``.
_READ_REQUEST_COST = envelope_cost(mk.READ) + 21


@functools.lru_cache(maxsize=1024)
def _read_encoding(
    invocation: MarshalledInvocation,
) -> Tuple[Dict[str, Any], int]:
    """A read invocation's wire dict and size, shared by every client.

    The encode and size walk are paid once per distinct invocation, and
    the dict is shared by reference (request bodies are frozen).  Only
    string arguments are cached -- ``1``, ``1.0`` and ``True`` are one
    key with three encodings -- so any other raises ``TypeError``, as an
    unhashable one does, and the caller encodes it uncached.
    """
    values = invocation.args + tuple(value for _, value in invocation.kwargs)
    if any(type(value) is not str for value in values):
        raise TypeError("only string arguments are cached")
    encoded = encode_invocation(invocation)
    return encoded, estimate_size(encoded)


class ReplicaError(Exception):
    """A store rejected or failed an invocation."""


class ClientReplicationObject(ReplicationObject):
    """Replication sub-object for a pure-client local object.

    Parameters
    ----------
    client_id:
        Stable identity used in WiDs and session state.
    read_store / write_store:
        Addresses of the stores serving this client's reads and writes
        (often the same cache; the paper's master splits them).
    policy:
        The object's replication policy (drives causal dep stamping).
    guarantees:
        Client-based coherence models this session requests.
    trace:
        Shared recorder, for checkable histories.
    request_timeout / request_retries:
        At-least-once behaviour over unreliable transports (experiment X5).
    """

    def __init__(
        self,
        client_id: str,
        read_store: str,
        write_store: Optional[str] = None,
        policy: Optional[ReplicationPolicy] = None,
        guarantees: Iterable[SessionGuarantee] = (),
        trace: Optional[TraceRecorder] = None,
        request_timeout: Optional[float] = None,
        request_retries: int = 0,
    ) -> None:
        self.client_id = client_id
        self.read_store = read_store
        self.write_store = write_store or read_store
        self.policy = policy or ReplicationPolicy()
        self.session = SessionState(
            client_id=client_id, guarantees=frozenset(guarantees)
        )
        self.trace = trace
        self.request_timeout = request_timeout
        self.request_retries = request_retries
        self.reads_issued = 0
        self.writes_issued = 0
        #: Seconds each completed read / write took, 8 bytes apiece.
        self.read_latencies = array("d")
        self.write_latencies = array("d")

    # -- ReplicationObject -----------------------------------------------------

    def handle_invocation(
        self, invocation: MarshalledInvocation, weight: int = 1
    ) -> Future:
        """Send a read to the read store or a write to the write store."""
        if invocation.read_only:
            return self._do_read(invocation, weight=weight)
        return self._do_write(invocation)

    def handle_message(self, src: str, message: Message) -> None:
        """Clients receive no unsolicited protocol traffic; ignore."""

    # -- reads ---------------------------------------------------------------

    def _do_read(
        self, invocation: MarshalledInvocation, weight: int = 1
    ) -> Future:
        self.reads_issued += weight
        started = self.clock.now
        result: Future = Future()
        try:
            encoded, encoded_size = _read_encoding(invocation)
        except TypeError:  # an argument the cache refuses: encode uncached
            encoded = encode_invocation(invocation)
            encoded_size = estimate_size(encoded)
        wire, wire_size = self.session.wire_sized()
        body = {"invocation": encoded, "session": wire}
        size = _READ_REQUEST_COST + encoded_size + wire_size
        if weight != 1:
            # Cohort read: one request standing in for ``weight`` clients.
            # Only stamped when non-trivial so ordinary traffic (and its
            # golden wire traces) is byte-identical to before cohorts.
            body["weight"] = weight
            size += 16  # 2 + len("weight") + 8 for the int value
        message = Message(mk.READ, body)
        message._size = size
        request = self.comm.request(
            self.read_store,
            message,
            timeout=self.request_timeout,
            retries=self.request_retries,
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException as exc:
                result.set_error(exc)
                return
            if reply.kind == mk.ERROR:
                result.set_error(
                    ReplicaError(reply.body.get("error", "read failed"))
                )
                return
            self.session.observe_read(reply.body.get("version", {}))
            # One entry per represented client: metrics weight cohort reads.
            self.read_latencies.extend([self.clock.now - started] * weight)
            result.set_result(reply.body.get("result"))

        request.add_callback(on_reply)
        return result

    # -- writes -----------------------------------------------------------------

    def _do_write(self, invocation: MarshalledInvocation) -> Future:
        self.writes_issued += 1
        started = self.clock.now
        result: Future = Future()
        wid = self.session.mint_wid()
        deps = self._write_deps()
        record = WriteRecord(
            wid=wid,
            invocation=invocation,
            deps=deps,
            timestamp=self.clock.now,
            origin=self.client_id,
        )
        if self.trace is not None:
            self.trace.record_write_issue(
                time=self.clock.now,
                client_id=self.client_id,
                wid=wid,
                store=self.write_store,
                deps=deps.as_dict() if deps is not None else None,
            )
        body = {"record": record.to_wire(), "session": self.session.to_wire()}
        request = self.comm.request(
            self.write_store,
            Message(mk.WRITE, body),
            timeout=self.request_timeout,
            retries=self.request_retries,
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException as exc:
                result.set_error(exc)
                return
            if reply.kind == mk.ERROR:
                result.set_error(
                    ReplicaError(reply.body.get("error", "write failed"))
                )
                return
            store = reply.body.get("store", self.write_store)
            self.session.observe_write(wid, store)
            if self.trace is not None:
                self.trace.record_write_ack(
                    time=self.clock.now,
                    client_id=self.client_id,
                    wid=wid,
                    store=store,
                )
            self.write_latencies.append(self.clock.now - started)
            result.set_result(wid)

        request.add_callback(on_reply)
        return result

    def _write_deps(self) -> Optional[VectorClock]:
        """Dependency vector for an outgoing write.

        Under a causal object model every write carries the client's full
        causal past; otherwise the session guarantees decide (WFR adds the
        read vector, monotonic-writes adds the client's own writes).
        """
        if self.policy.model is CoherenceModel.CAUSAL:
            return self.session.read_vc.merged(self.session.write_vc)
        deps = self.session.write_deps()
        if deps is not None:
            return deps
        if SessionGuarantee.MONOTONIC_WRITES in self.session.guarantees:
            return self.session.write_vc.copy()
        return None
