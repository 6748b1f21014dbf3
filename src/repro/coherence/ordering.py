"""Ordering disciplines: when may a replica apply a write?

Each object-based coherence model corresponds to one
:class:`OrderingDiscipline`.  A store's replication object *offers* every
incoming :class:`~repro.coherence.records.WriteRecord` to its discipline;
the discipline returns the records that may be applied now (possibly
including previously buffered ones that just became ready, in order) and
holds back the rest.

The disciplines also enforce per-record dependency vectors, which is how
client-causal (writes-follow-reads) sessions are honored even under
object-based models weaker than causal (design decision D2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from repro.coherence.models import CoherenceModel
from repro.coherence.records import WriteRecord
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId


class OrderingDiscipline:
    """Base class: tracking of applied writes plus dependency gating."""

    model = CoherenceModel.EVENTUAL

    def __init__(self) -> None:
        #: Version vector of all applied writes.
        self.applied = VectorClock()
        #: Held-back records, keyed by WiD.
        self.buffer: Dict[WriteId, WriteRecord] = {}
        #: Writes discarded as superseded (FIFO / eventual LWW).
        self.dropped = 0
        #: Called with every record the discipline discards.
        self.on_drop: Callable[[WriteRecord], None] = lambda record: None

    # -- API ---------------------------------------------------------------

    def offer(self, record: WriteRecord) -> List[WriteRecord]:
        """Submit a record; return records now applicable, in apply order."""
        if record.wid in self.buffer:
            return []
        if self._superseded(record):
            self.dropped += 1
            self.on_drop(record)
            return []
        if self.incorporated(record.wid):
            return []
        if (
            not self.buffer
            and self._deps_satisfied(record)
            and self._ready(record)
        ):
            # In order and nothing held back: what ``_drain`` would do
            # with a one-record buffer, without the insert, sort and scans.
            self._mark_applied(record)
            return [record]
        self.buffer[record.wid] = record
        return self._drain()

    def incorporated(self, wid: WriteId) -> bool:
        """Whether the write ``wid`` is already part of this replica.

        A gapless discipline's applied vector covers exactly the writes it
        has; the gap-skipping eventual discipline overrides this.
        """
        return self.applied.includes(wid)

    def has_gaps(self) -> bool:
        """Whether buffered records are waiting on missing predecessors.

        This is the store's signal that its replica is outdated and the
        outdate-reaction parameter (wait vs demand) applies.  Under
        ``WAIT`` a gap is waited on, never demanded: that is the paper's
        behaviour, and experiment x5 claims it ("UDP + wait does not
        catch up"); demanding on every gap breaks that claim.  So a
        replica that a crash left behind a lost update (F3) has to be
        repaired by its restart, not here.
        """
        return bool(self.buffer)

    def install(self, version: VectorClock, fields: Dict[str, Any]) -> None:
        """Reset after a full-state transfer (``version``, body ``fields``)."""
        self.applied = version.copy()
        self.buffer = {
            wid: rec
            for wid, rec in self.buffer.items()
            if not version.includes(wid)
        }

    def transfer_fields(self) -> Dict[str, Any]:
        """What this discipline adds to a full-state transfer body."""
        return {}

    def replay(self, records: Iterable[WriteRecord]) -> None:
        """Note journalled ``records`` replayed into the log, unoffered."""

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self, full: bool = True) -> Dict[str, Any]:
        """Plain-data snapshot of the discipline (codec-encodable).

        Subclasses with extra state extend the dict; the pair with
        :meth:`load_state` lets a killed store node resume exactly where
        its last checkpoint left it, which is what keeps restart-time
        coherence signatures identical across backends.

        ``full=False`` is the journal form: only the parts whose size
        does not grow with the write history.  The eventual discipline's
        ``seen`` is left out (:meth:`replay` restores it from the
        journalled log tail) and so is the per-key state, which
        :meth:`key_state` reports for just the keys a delta touched.
        """
        return {
            "applied": self.applied.as_dict(),
            "buffer": [self.buffer[wid].to_wire() for wid in sorted(self.buffer)],
            "dropped": self.dropped,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`, in either form."""
        self.applied = VectorClock(state["applied"])
        self.buffer = {
            record.wid: record
            for record in (WriteRecord.from_wire(w) for w in state["buffer"])
        }
        self.dropped = state["dropped"]

    def key_state(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Plain-data per-key state restricted to ``keys`` (none here)."""
        return {}

    def load_key_state(self, state: Dict[str, Any]) -> None:
        """Merge a :meth:`key_state` dict into the discipline."""

    # -- hooks ----------------------------------------------------------------

    def _ready(self, record: WriteRecord) -> bool:
        """Model-specific test: may ``record`` be applied right now?"""
        return True

    def _superseded(self, record: WriteRecord) -> bool:
        """Model-specific test: is ``record`` stale and to be discarded?"""
        return False

    def _mark_applied(self, record: WriteRecord) -> None:
        self.applied.record(record.wid)

    def _deps_satisfied(self, record: WriteRecord) -> bool:
        return record.deps is None or self.applied.dominates(record.deps)

    def _drain(self) -> List[WriteRecord]:
        """Repeatedly release buffered records until a fixpoint."""
        released: List[WriteRecord] = []
        progress = True
        while progress:
            progress = False
            for wid in sorted(self.buffer):
                record = self.buffer[wid]
                if self._superseded(record):
                    del self.buffer[wid]
                    self.dropped += 1
                    self.on_drop(record)
                    progress = True
                    continue
                if self._deps_satisfied(record) and self._ready(record):
                    del self.buffer[wid]
                    self._mark_applied(record)
                    released.append(record)
                    progress = True
        return released


class PramOrdering(OrderingDiscipline):
    """PRAM: each client's writes apply in per-client sequence order.

    This is the paper's prototype protocol: the incoming WiD's sequence
    number is compared against ``expected_write[client]``; in-order writes
    apply, out-of-order writes are buffered "until the next one" (Section
    4.2).
    """

    model = CoherenceModel.PRAM

    def offer(self, record: WriteRecord) -> List[WriteRecord]:
        """The base :meth:`~OrderingDiscipline.offer`, shorter in order.

        With nothing buffered and no dependency vector, only ``applied``
        decides (PRAM never supersedes, and ``applied`` is its duplicate
        test): the client's next seqno is recorded and released, and a
        seqno already covered is ignored.  Anything else takes the
        general body.
        """
        if not self.buffer and record.deps is None:
            wid = record.wid
            applied = self.applied
            last = applied.get(wid.client_id)
            if wid.seqno == last + 1:
                applied.advance(wid.client_id, wid.seqno)
                return [record]
            if wid.seqno <= last:
                return []
        return super().offer(record)

    def _ready(self, record: WriteRecord) -> bool:
        return record.wid.seqno == self.applied.get(record.wid.client_id) + 1


class FifoOrdering(OrderingDiscipline):
    """The paper's FIFO optimization of PRAM.

    A write is honored only if more recent than the latest applied write
    from the same client; superseded or late writes are ignored.  Suited to
    clients that overwrite a document rather than updating incrementally.
    """

    model = CoherenceModel.FIFO

    def _ready(self, record: WriteRecord) -> bool:
        # Any write newer than the client's last applied one is acceptable;
        # gaps are skipped rather than awaited.
        return record.wid.seqno > self.applied.get(record.wid.client_id)

    def _superseded(self, record: WriteRecord) -> bool:
        return record.wid.seqno <= self.applied.get(record.wid.client_id)


class CausalOrdering(OrderingDiscipline):
    """Causal: a write applies once everything it depends on has applied.

    Every record carries a dependency vector stamped at its origin; the
    base-class dependency gate does the entire job.
    """

    model = CoherenceModel.CAUSAL

    def _ready(self, record: WriteRecord) -> bool:
        # Besides cross-client dependencies, a client's own writes are
        # causally ordered, so enforce per-client sequence too.
        return record.wid.seqno == self.applied.get(record.wid.client_id) + 1


class SequentialOrdering(OrderingDiscipline):
    """Sequential: one global total order, assigned by a sequencer.

    Replicas apply records strictly in ``global_seq`` order, which makes
    every store's apply sequence a prefix of the same global history.
    """

    model = CoherenceModel.SEQUENTIAL

    def __init__(self) -> None:
        super().__init__()
        self.next_global = 1

    def _ready(self, record: WriteRecord) -> bool:
        return record.global_seq == self.next_global

    def _mark_applied(self, record: WriteRecord) -> None:
        super()._mark_applied(record)
        self.next_global += 1

    def install(self, version: VectorClock, fields: Dict[str, Any]) -> None:
        """Also adopt the sender's ``next_global``, when ``fields`` has one."""
        super().install(version, fields)
        if "next_global" in fields:
            self.next_global = fields["next_global"]

    def transfer_fields(self) -> Dict[str, Any]:
        """The sequencer position a full-state transfer carries."""
        return {"next_global": self.next_global}

    def state_dict(self, full: bool = True) -> Dict[str, Any]:
        """The base state plus ``next_global``."""
        state = super().state_dict(full)
        state["next_global"] = self.next_global
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`."""
        super().load_state(state)
        self.next_global = state["next_global"]


class EventualOrdering(OrderingDiscipline):
    """Eventual: apply whatever arrives, with per-key last-writer-wins.

    A record is discarded when every state key it touches already carries
    a newer applied write, which makes replicas converge for overwrite
    workloads.  The only discipline that skips gaps, and so the only one
    whose applied vector covers writes it never saw: it keeps ``seen``.
    """

    model = CoherenceModel.EVENTUAL

    def __init__(self) -> None:
        super().__init__()
        #: WiDs applied and not covered by an install (dedupe).
        self.seen: Set[WriteId] = set()
        self._key_latest: Dict[str, Tuple[float, WriteId]] = {}
        #: Writes incorporated via snapshot installs; the applied vector
        #: cannot be used for dedupe here because gap-skipping makes it
        #: cover writes that were never seen.
        self._floor = VectorClock()

    def install(self, version: VectorClock, fields: Dict[str, Any]) -> None:
        """Also raise the install floor and forget what ``version`` covers."""
        super().install(version, fields)
        self.seen = {wid for wid in self.seen if not version.includes(wid)}
        self._floor.merge(version)

    def incorporated(self, wid: WriteId) -> bool:
        """Whether ``wid`` was applied here or covered by an install."""
        return wid in self.seen or self._floor.includes(wid)

    def replay(self, records: Iterable[WriteRecord]) -> None:
        """The replayed records were applied: add them to ``seen``."""
        self.seen.update(record.wid for record in records)

    def _superseded(self, record: WriteRecord) -> bool:
        if not record.touched:
            return False
        stamp = (record.timestamp, record.wid)
        return all(
            key in self._key_latest and self._key_latest[key] > stamp
            for key in record.touched
        )

    def _mark_applied(self, record: WriteRecord) -> None:
        super()._mark_applied(record)
        self.seen.add(record.wid)
        stamp = (record.timestamp, record.wid)
        for key in record.touched:
            if key not in self._key_latest or self._key_latest[key] < stamp:
                self._key_latest[key] = stamp

    def state_dict(self, full: bool = True) -> Dict[str, Any]:
        """The base state plus the floor; ``full`` adds ``seen`` and stamps."""
        state = super().state_dict(full)
        if full:
            state["seen"] = sorted(str(wid) for wid in self.seen)
            state["key_latest"] = self.key_state(self._key_latest)
        state["floor"] = self._floor.as_dict()
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`, in either form."""
        super().load_state(state)
        if "seen" in state:
            self.seen = {WriteId.parse(text) for text in state["seen"]}
        if "key_latest" in state:
            self._key_latest = {}
            self.load_key_state(state["key_latest"])
        self._floor = VectorClock(state["floor"])

    def key_state(self, keys: Iterable[str]) -> Dict[str, Any]:
        """The LWW stamps of ``keys``, as plain data."""
        latest = self._key_latest
        return {
            key: [latest[key][0], str(latest[key][1])]
            for key in keys
            if key in latest
        }

    def load_key_state(self, state: Dict[str, Any]) -> None:
        """Merge LWW stamps from a :meth:`key_state` dict."""
        for key, (timestamp, text) in state.items():
            self._key_latest[key] = (timestamp, WriteId.parse(text))


def make_ordering(model: CoherenceModel) -> OrderingDiscipline:
    """Factory: the ordering discipline for an object-based model."""
    if model is CoherenceModel.PRAM:
        return PramOrdering()
    if model is CoherenceModel.FIFO:
        return FifoOrdering()
    if model is CoherenceModel.CAUSAL:
        return CausalOrdering()
    if model is CoherenceModel.SEQUENTIAL:
        return SequentialOrdering()
    if model is CoherenceModel.EVENTUAL:
        return EventualOrdering()
    raise ValueError(f"unknown coherence model {model!r}")
