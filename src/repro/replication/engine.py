"""The store-side replication object: a façade over a protocol stack.

One policy-parameterized engine implements every replication strategy in
the Table-1 space (design decision D3): the ordering discipline from the
object's coherence model (weakened to eventual below the store-scope
layer, D4), the propagation parameters, and the two outdate reactions.
Stores form the Fig. 2 hierarchy through ``parent``/``children`` links;
writes flow up to the primary permanent store (except eventual
multi-writer objects, which accept writes anywhere and gossip), updates
flow down.

The engine itself is a thin coordinator over four composable components:
:class:`~repro.replication.write_path.WritePath` (accept / forward /
stamp / acknowledge), :class:`~repro.replication.read_path.ReadDemandPath`
(read admission + demand/state transfer),
:class:`~repro.replication.propagation.PropagationStrategy` (whether and
when applied records travel) and
:class:`~repro.replication.emission.CoherenceEmitter` (what one coherence
transmission carries).  What remains here is the shared replica state, the
message dispatch table, and the apply path every component converges on.
The stack sends through the store's communication object and arms timers
on its clock, both over the unified :mod:`repro.transport` protocols -- so
the identical protocol code runs in virtual time and wall-clock time.

A store's one input is a protocol message (:meth:`handle_message`) whose
body is plain data.  Clients "only translate method calls to messages",
so a caller in the store's own address space binds a client local object
too and reaches the store through ``READ`` / ``WRITE`` requests; a store
has no method-call entry point.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, List, Optional, Sequence

from repro.coherence.models import CoherenceModel
from repro.coherence.ordering import OrderingDiscipline, make_ordering
from repro.coherence.records import WriteRecord
from repro.coherence.trace import TraceRecorder
from repro.coherence.vector_clock import VectorClock
from repro.comm.message import Message
from repro.core.interfaces import ReplicationObject, Role
from repro.replication import messages as mk
from repro.replication.emission import CoherenceEmitter
from repro.replication.policy import (
    PolicyError,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.replication.propagation import PropagationStrategy
from repro.replication.read_path import ReadDemandPath
from repro.replication.write_path import WritePath

#: Interned ``rx:<kind>`` counter labels; the kind vocabulary is a small
#: closed set, so each label is formatted exactly once per process.
_RX_LABELS: Dict[str, str] = {}


class StoreReplicationObject(ReplicationObject):
    """Replication sub-object for permanent, mirror and cache stores.

    ``policy`` is the object's replication strategy (Table 1 values) and
    ``role`` the store layer this replica sits at (Fig. 2).  ``parent`` is
    the upstream store address -- ``None`` makes this the primary permanent
    store (the write sink and, under sequential coherence, the sequencer);
    ``children`` are the initially subscribed downstream stores (more may
    subscribe at runtime).  ``trace`` is the shared recorder for coherence
    checking; ``allowed_writer`` locks a ``single`` write set to one client
    (``None`` locks to the first writer seen).
    """

    def __init__(
        self,
        policy: ReplicationPolicy,
        role: Role,
        parent: Optional[str] = None,
        children: Optional[Sequence[str]] = None,
        trace: Optional[TraceRecorder] = None,
        allowed_writer: Optional[str] = None,
    ) -> None:
        self.policy = policy  # what set_policy checks the next one against
        self.role = role
        self.parent = parent
        self.set_policy(policy)
        self.children: List[str] = list(children or [])
        self.trace = trace
        self.allowed_writer = allowed_writer
        self.enforced = policy.enforces_at(role)
        self.ordering: OrderingDiscipline = (
            make_ordering(policy.model)
            if self.enforced
            else make_ordering(CoherenceModel.EVENTUAL)
        )
        self.ordering.on_drop = self._on_drop
        #: Applied records, in application order (the catch-up log).
        self.log: List[WriteRecord] = []
        #: Writes covered before the log begins (set by snapshot installs).
        self.log_base = VectorClock()
        #: Per-key freshness: version vector the key's content is current to.
        self.as_of: Dict[str, VectorClock] = {}
        #: Keys whose content was invalidated by upstream.
        self.invalid_keys: set = set()
        #: Version upstream notified us exists (staleness awareness).
        self.known_remote = VectorClock()
        self.counters: collections.Counter = collections.Counter()
        # Whether this replica holds the complete document: true from birth
        # for the primary (it owns the initial state), true for others
        # after their first full-snapshot install.  Needed because a fresh
        # replica and the primary can share an *empty* version vector (the
        # initial pages predate all writes) yet differ entirely in content.
        self.has_full_state = parent is None
        # The protocol stack: four components sharing this replica state.
        self.writes = WritePath(self)
        self.reads = ReadDemandPath(self)
        self.propagation = PropagationStrategy(self)
        self.emission = CoherenceEmitter(self)
        # What :meth:`delta` starts from: the small fields and log length
        # last persisted, and what state transfers rewrote since.
        self._persisted: Dict[str, Any] = {}
        self._persisted_len = 0
        self._installed_keys: set = set()
        self._reinstalled = False

    # ------------------------------------------------------------------ setup

    @property
    def is_primary(self) -> bool:
        """Whether this store is the root of the hierarchy."""
        return self.parent is None

    def set_policy(self, policy: ReplicationPolicy) -> None:
        """Adopt ``policy`` and take, once, the decisions it alone fixes.

        Refuses a change of ``model`` or ``store_scope``: the ordering
        discipline is built from them.
        """
        policy.validate()
        if (policy.model, policy.store_scope) != (
            self.policy.model, self.policy.store_scope
        ):
            raise PolicyError(
                "a store cannot change its coherence model or store scope"
            )
        self.policy = policy
        #: The name trace events carry (see the policy's).
        self.strategy_label = policy.strategy_label
        #: Pull+immediate: every read first pulls from the parent.
        self.pull_on_access = (
            policy.transfer_initiative is TransferInitiative.PULL
            and policy.transfer_instant is TransferInstant.IMMEDIATE
            and self.parent is not None
        )

    def start(self) -> None:
        """Arm the propagation strategy's timers, if the policy needs any."""
        self.propagation.start()

    def stop(self) -> None:
        """Cancel timers."""
        self.propagation.stop()

    def subscribe_child(self, address: str) -> None:
        """Add a downstream store to the propagation set."""
        if address not in self.children:
            self.children.append(address)

    # ------------------------------------------------------------- message paths

    def handle_message(self, src: str, message: Message) -> None:
        """Dispatch protocol traffic to the owning component.

        Reads lead the chain (they dominate every workload the paper
        measures), and the per-kind ``rx:`` counter label is interned
        once per kind instead of being re-formatted per message.
        """
        kind = message.kind
        label = _RX_LABELS.get(kind)
        if label is None:
            label = _RX_LABELS[kind] = f"rx:{kind}"
        self.counters[label] += 1
        if kind == mk.READ:
            self.reads.on_read(src, message)
        elif kind == mk.WRITE:
            self.writes.on_write(src, message)
        elif kind == mk.UPDATE:
            self._on_update(src, message)
        elif kind == mk.UPDATE_FULL:
            self.reads.install_snapshot(message.body)
        elif kind == mk.INVALIDATE:
            self._on_invalidate(src, message)
        elif kind == mk.NOTIFY:
            self._on_notify(src, message)
        elif kind == mk.DEMAND:
            self.reads.serve_demand(src, message)
        elif kind == mk.SUBSCRIBE:
            self.subscribe_child(message.body.get("address", src))
        elif kind == mk.UNSUBSCRIBE:
            address = message.body.get("address", src)
            if address in self.children:
                self.children.remove(address)

    def _on_update(self, src: str, message: Message) -> None:
        # Decoded by the first receiver of the message, shared by the rest
        # (``Message._memo``): records are frozen and the batch is a tuple.
        records = message._memo
        if records is None:
            records = message._memo = tuple(
                WriteRecord.from_wire(w) for w in message.body["records"]
            )
        self.ingest_records(records, skip=src)

    def _on_invalidate(self, src: str, message: Message) -> None:
        keys = message.body.get("keys")
        self.known_remote.merge(VectorClock(message.body["version"]))
        self.reads.replies = {}
        if keys is None:
            self.invalid_keys.update(self.control.semantics_snapshot().keys())
        else:
            self.invalid_keys.update(keys)
        self.reads.outdated(self.invalid_keys)

    def _on_notify(self, src: str, message: Message) -> None:
        self.known_remote.merge(VectorClock(message.body["version"]))
        self.reads.outdated()

    # -- the apply path every component converges on ---------------------------

    def apply_records(
        self, records: Sequence[WriteRecord], skip: Optional[str] = None
    ) -> None:
        """Apply ordering-released records, then propagate and serve reads.

        Runs once per pushed batch at every replica, so what the loop
        reads is looked up once per batch: the control's bound semantics
        calls, the trace's time and address, and whether any write ack
        or parked read could be waiting on this batch at all.
        """
        if not records:
            return
        self.reads.replies = {}
        control = self.control
        can_apply = control.can_apply
        apply_local = control.apply_local
        trace = self.trace
        primary = self.parent is None
        applied = self.ordering.applied
        as_of = self.as_of
        invalid_keys = self.invalid_keys
        log = self.log
        writes = self.writes
        pending_acks = writes.pending_acks
        # The ordering advanced ``applied`` for the whole batch before
        # releasing it, so one stamp, never mutated, serves every record;
        # the recorder gives every store reaching it the same one.
        if trace is None:
            stamp = applied.copy()
        else:
            now = self.clock.now
            address = self.address
            stamp, stamped = trace.stamp(applied)
        for record in records:
            log.append(record)
            if primary or can_apply(record.invocation):
                apply_local(record.invocation)
                for key in record.touched:
                    as_of[key] = stamp
                    invalid_keys.discard(key)
            else:
                # A delta for content this partial replica never cached:
                # leave the page uncached so a later read fetches it whole.
                for key in record.touched:
                    as_of.pop(key, None)
                    invalid_keys.add(key)
            if trace is not None:
                deps = record.deps
                trace.record_apply(
                    time=now,
                    store=address,
                    wid=record.wid,
                    applied_vc=stamped,
                    global_seq=record.global_seq,
                    deps=deps.as_dict() if deps is not None else None,
                )
            if pending_acks:
                writes.settle_ack(record.wid)
        self.propagation.propagate(records, skip=skip)
        if self.reads.waiting:
            self.reads.serve_waiting()

    def ingest_records(
        self, records: Sequence[WriteRecord], skip: Optional[str]
    ) -> None:
        """Offer received records to the ordering, applying what's released."""
        ordering = self.ordering
        if len(records) == 1:
            # A one-write push or an accepted write: no batch to build.
            ready = ordering.offer(records[0])
        else:
            ready = []
            for record in records:
                ready.extend(ordering.offer(record))
        # Propagation cascade happens inside apply_records; the skip
        # parameter prevents echoing records straight back to the sender.
        if ready:
            self.apply_records(ready, skip=skip)
        if ordering.has_gaps():
            self.reads.outdated()

    def _on_drop(self, record: WriteRecord) -> None:
        """The ordering discarded ``record``: trace it and settle its ack."""
        if self.trace is not None:
            self.trace.record_drop(
                self.clock.now, self.address, record.wid
            )
        self.writes.settle_ack(record.wid)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Plain-data snapshot of the durable replica state (codec-safe).

        Captures everything a re-spawned store process needs to resume as
        the same replica: ordering-discipline state, the catch-up log and
        its base vector, per-key freshness, invalidations, staleness
        awareness, write-path sequence counters and any lazily pending
        propagation.  Transient coordination state (in-flight acks,
        waiting reads, demand futures) is deliberately NOT captured -- a
        crash drops it on every backend, which is exactly the
        ``FaultableTransportMixin`` in-flight semantics.
        """
        state = self._fields()
        state["ordering"] = self.ordering.state_dict()
        state["log"] = [record.to_wire() for record in self.log]
        state["as_of"] = {key: vc.as_dict() for key, vc in self.as_of.items()}
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint`; call before :meth:`start`."""
        self.reads.replies = {}
        self.log = [WriteRecord.from_wire(w) for w in state["log"]]
        self.as_of = {
            key: VectorClock(vc)
            for key, vc in state["as_of"].items()
        }
        self._load_fields(state)
        self._mark(self._fields())

    def _fields(self) -> Dict[str, Any]:
        """The small durable fields as plain data, ordering in journal form.

        Everything :meth:`checkpoint` holds except the three parts that
        grow with the write history or the document (``log``, ``as_of``,
        the ordering's history-sized state); :meth:`delta` compares
        this dict with the last persisted one field by field.
        """
        return {
            "ordering": self.ordering.state_dict(full=False),
            "log_base": self.log_base.as_dict(),
            "invalid_keys": sorted(self.invalid_keys),
            "known_remote": self.known_remote.as_dict(),
            "counters": dict(self.counters),
            "has_full_state": self.has_full_state,
            "children": list(self.children),
            "allowed_writer": self.allowed_writer,
            "write_next_global": self.writes.next_global,
            "pending_lazy": [
                record.to_wire() for record in self.propagation.pending_lazy
            ],
        }

    def _load_fields(self, state: Dict[str, Any]) -> None:
        """Load whichever of the :meth:`_fields` entries ``state`` holds."""
        for name, value in state.items():
            if name == "ordering":
                self.ordering.load_state(value)
            elif name == "log_base":
                self.log_base = VectorClock(value)
            elif name == "invalid_keys":
                self.invalid_keys = set(value)
            elif name == "known_remote":
                self.known_remote = VectorClock(value)
            elif name == "counters":
                self.counters = collections.Counter(value)
            elif name == "write_next_global":
                self.writes.next_global = value
            elif name == "pending_lazy":
                self.propagation.pending_lazy = [
                    WriteRecord.from_wire(w) for w in value
                ]
            elif name == "children":
                self.children = list(value)
            elif name in ("has_full_state", "allowed_writer"):
                setattr(self, name, value)

    # -- incremental persistence -------------------------------------------------

    def delta(self) -> Optional[Dict[str, Any]]:
        """What durably changed since the last call (or :meth:`restore`).

        ``None`` when nothing did.  Otherwise a codec-safe dict a journal
        can append and :meth:`apply_delta` replays: the log tail, the
        small fields whose value differs, and -- for the keys the tail's
        records touched or a partial transfer installed -- their
        freshness vector, page content and ordering state.  Its cost
        follows what changed, never the length of the log.  A full-state
        install replaces log, freshness and document wholesale; that is
        reported as ``{"reinstalled": True}`` and only a fresh
        :meth:`checkpoint` can persist it.
        """
        fields = self._fields()
        reinstalled = self._reinstalled
        tail = self.log[self._persisted_len:]
        keys = set(self._installed_keys)
        changed = {
            name: value
            for name, value in fields.items()
            if self._persisted.get(name) != value
        }
        self._mark(fields)
        if reinstalled:
            return {"reinstalled": True}
        if not (changed or tail or keys):
            return None
        delta: Dict[str, Any] = {"fields": changed}
        if tail:
            delta["log"] = [record.to_wire() for record in tail]
            keys.update(*(record.touched for record in tail))
        if keys:
            ordered = sorted(keys)
            as_of = self.as_of
            delta["as_of"] = {
                key: as_of[key].as_dict() if key in as_of else None
                for key in ordered
            }
            delta["state"] = self.control.semantics_snapshot(ordered)
            delta["key_state"] = self.ordering.key_state(ordered)
        return delta

    def apply_delta(self, delta: Dict[str, Any]) -> None:
        """Replay one :meth:`delta` onto the state it was taken against."""
        self.reads.replies = {}
        tail = [WriteRecord.from_wire(w) for w in delta.get("log", ())]
        self.log.extend(tail)
        self.ordering.replay(tail)
        self._load_fields(delta["fields"])
        state = delta.get("state", {})
        gone = []
        for key, vc in delta.get("as_of", {}).items():
            if vc is None:
                self.as_of.pop(key, None)
            else:
                self.as_of[key] = VectorClock(vc)
            if key not in state:
                gone.append(key)
        if len(self.control.missing_keys(gone)) < len(gone):
            # The semantics interface has no "forget": rebuild without.
            kept = self.control.semantics_snapshot()
            for key in gone:
                kept.pop(key, None)
            self.control.semantics_restore(kept, partial=False)
        if state:
            self.control.semantics_restore(state, partial=True)
        self.ordering.load_key_state(delta.get("key_state", {}))
        self._mark(self._fields())

    def note_install(self, keys: Optional[Sequence[str]]) -> None:
        """A state transfer rewrote ``keys`` (``None``: everything).

        The one thing :meth:`delta` cannot derive from the log tail.
        """
        if keys is None:
            self._reinstalled = True
        else:
            self._installed_keys.update(keys)

    def _mark(self, fields: Dict[str, Any]) -> None:
        """Record ``fields`` (current) as what the next delta starts from."""
        self._persisted = fields
        self._persisted_len = len(self.log)
        self._installed_keys.clear()
        self._reinstalled = False

    # -- introspection ---------------------------------------------------------

    def version(self) -> Dict[str, int]:
        """The store's applied version vector, as a dict."""
        return self.ordering.applied.as_dict()

    def snapshot_state(self) -> Dict[str, Any]:
        """Current semantics state (for convergence checks in tests)."""
        return self.control.semantics_snapshot()

    @property
    def waiting_reads(self) -> int:
        """Number of reads currently blocked at this store."""
        return len(self.reads.waiting)
