"""Execution-trace recording.

Every experiment and most tests attach one :class:`TraceRecorder` to the
system under test.  Stores report write applications, installs and drops;
clients report issued writes, acknowledgements and reads.  The checkers in
:mod:`repro.coherence.checkers` then verify the declared coherence models
against the recorded history -- the machine-checked replacement for the
paper's manual observation of its prototype.

The same class is the observability recorder: :func:`repro.obs.tracer.
trace_run` installs a fresh one whose :meth:`TraceRecorder.event` hook
sites across the stack append plain, JSONL-ready dicts.  An event's
place in :attr:`TraceRecorder.events` is its global order.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

#: The one requirement dict of every read that carried none.
_EMPTY: Dict[str, int] = {}
Stamp = Tuple[VectorClock, Dict[str, int]]


@dataclasses.dataclass(slots=True)
class TraceEvent:
    """Base event: the recording clock's timestamp.

    Events are slotted rather than frozen: a frozen dataclass sets every
    field through ``object.__setattr__``, which more than doubles the
    cost of the one event each replica records per applied write.
    Nothing edits an event once recorded.
    """

    time: float


@dataclasses.dataclass(slots=True)
class ApplyEvent(TraceEvent):
    """A store applied a write to its replica."""

    store: str
    wid: WriteId
    global_seq: Optional[int]
    deps: Optional[Dict[str, int]]
    applied_vc: Dict[str, int]


@dataclasses.dataclass(slots=True)
class InstallEvent(TraceEvent):
    """A store replaced its replica via full-state transfer."""

    store: str
    version: Dict[str, int]


@dataclasses.dataclass(slots=True)
class DropEvent(TraceEvent):
    """A store discarded a superseded write (FIFO / eventual LWW)."""

    store: str
    wid: WriteId


@dataclasses.dataclass(slots=True)
class WriteIssueEvent(TraceEvent):
    """A client issued a write."""

    client_id: str
    wid: WriteId
    store: str
    deps: Optional[Dict[str, int]]


@dataclasses.dataclass(slots=True)
class WriteAckEvent(TraceEvent):
    """A client's write was acknowledged by a store."""

    client_id: str
    wid: WriteId
    store: str


@dataclasses.dataclass(slots=True)
class ReadEvent(TraceEvent):
    """A store served a read to a client."""

    store: str
    client_id: str
    served_vc: Dict[str, int]
    requirement: Dict[str, int]
    #: Identical cohort clients this one served request stood in for;
    #: metrics multiply by this so cohort runs weight correctly.
    weight: int = 1


def _plain(value: Any) -> Any:
    """Coerce one detail value to deterministic plain data.

    Scalars pass through; mappings and sequences recurse; anything else
    (enums, ids, records) becomes its ``str`` so traces serialize the
    same way under every executor and never hold object references.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(
            value, (set, frozenset)) else value
        return [_plain(item) for item in items]
    return str(value)


class TraceRecorder:
    """Append-only recorder shared by all components of one system."""

    def __init__(self) -> None:
        #: :class:`TraceEvent` records from the ``record_*`` methods, or
        #: plain dicts from :meth:`event` (an observability recorder).
        self.events: List[Any] = []
        #: Hash-consing pools keyed by a version's items in order: one dict
        #: (see :meth:`_intern`) or stamp (see :meth:`stamp`) per value.
        self.versions: Dict[tuple, Dict[str, int]] = {}
        self.stamps: Dict[tuple, Stamp] = {}

    def stamp(self, applied: VectorClock) -> Stamp:
        """``applied``'s frozen copy and dict, one per value: never mutate."""
        key = tuple(applied._entries.items())  # read in place: no call
        pooled = self.stamps.get(key)
        if pooled is None:
            clock = applied.copy()
            pooled = self.stamps[key] = (clock, clock.view())
        return pooled

    def _intern(self, version: Dict[str, int]) -> Dict[str, int]:
        """The pooled dict equal to ``version``: never mutate either."""
        return self.versions.setdefault(tuple(version.items()), version)

    # -- recording -----------------------------------------------------------

    def event(
        self,
        time: float,
        kind: str,
        node: Optional[str] = None,
        obj: Optional[str] = None,
        **detail: Any,
    ) -> None:
        """Append one observability event as a plain dict.

        ``time`` comes from the caller's clock; detail values are
        flattened to plain data (see :func:`_plain`).
        """
        record: Dict[str, Any] = {
            "t": float(time),
            "kind": kind,
            "node": node,
            "obj": obj,
        }
        for key, value in detail.items():
            record[key] = _plain(value)
        self.events.append(record)

    def record_apply(
        self,
        time: float,
        store: str,
        wid: WriteId,
        applied_vc: Dict[str, int],
        global_seq: Optional[int] = None,
        deps: Optional[Dict[str, int]] = None,
    ) -> None:
        """A store applied ``wid``; ``applied_vc`` is the VC *after* apply.

        The event keeps ``applied_vc`` itself, uncopied: the caller hands
        over a dict no one mutates (the engine's batch stamp, see
        :meth:`stamp`); ``deps`` is interned, so never mutate it either.
        """
        if deps is not None:
            deps = self._intern(deps)
        self.events.append(
            ApplyEvent(
                time=time,
                store=store,
                wid=wid,
                global_seq=global_seq,
                deps=deps,
                applied_vc=applied_vc,
            )
        )

    def record_install(
        self, time: float, store: str, version: Dict[str, int]
    ) -> None:
        """A store installed ``version`` (kept uncopied: never mutate it)."""
        version = self._intern(version)
        self.events.append(
            InstallEvent(time=time, store=store, version=version)
        )

    def record_drop(self, time: float, store: str, wid: WriteId) -> None:
        """A store discarded a superseded write."""
        self.events.append(DropEvent(time=time, store=store, wid=wid))

    def record_write_issue(
        self,
        time: float,
        client_id: str,
        wid: WriteId,
        store: str,
        deps: Optional[Dict[str, int]] = None,
    ) -> None:
        """A client issued a write; ``deps`` kept uncopied: never mutate it."""
        if deps is not None:
            deps = self._intern(deps)
        self.events.append(
            WriteIssueEvent(time=time, client_id=client_id, wid=wid,
                            store=store, deps=deps)
        )

    def record_write_ack(
        self, time: float, client_id: str, wid: WriteId, store: str
    ) -> None:
        """A store acknowledged a client's write."""
        self.events.append(
            WriteAckEvent(time=time, client_id=client_id, wid=wid,
                          store=store)
        )

    def record_read(
        self,
        time: float,
        store: str,
        client_id: str,
        served_vc: Dict[str, int],
        requirement: Optional[Dict[str, int]] = None,
        weight: int = 1,
    ) -> None:
        """A store served a read; ``served_vc`` is its VC at serve time.

        ``weight`` counts the cohort clients the read represents (1 for
        an ordinary per-client read).  Callers pass frozen message dicts
        (a reply's version, a request's requirement), kept uncopied; every
        empty requirement is the one ``_EMPTY``.
        """
        self.events.append(
            ReadEvent(
                time=time, store=store, client_id=client_id,
                served_vc=served_vc, requirement=requirement or _EMPTY,
                weight=weight,
            )
        )

    # -- accessors -----------------------------------------------------------

    def of_type(self, event_type: type) -> List[TraceEvent]:
        """All events of one type, in global order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def stores(self) -> List[str]:
        """All stores that applied or installed anything, in first-seen order."""
        stores = (getattr(e, "store", None) for e in self.events
                  if not isinstance(e, ReadEvent))
        return [name for name in dict.fromkeys(stores) if name is not None]

    def clients(self) -> List[str]:
        """All clients that issued writes or reads, in first-seen order."""
        clients = (getattr(e, "client_id", None) for e in self.events)
        return [name for name in dict.fromkeys(clients) if name is not None]


def coherence_signature(trace: TraceRecorder) -> Dict[str, List[tuple]]:
    """A time-free, per-participant normalization of a coherence history.

    Returns, for every store (``"store:<addr>"``) and client
    (``"client:<id>"``), its event sequence reduced to order-and-content
    tuples: apply/install/drop with their WiDs and version vectors, write
    issues/acks, and reads with their served vectors.  Global
    interleaving across participants and all timestamps are dropped --
    they are substrate artifacts -- so two runs of the same scripted
    workload on different backends (virtual vs wall-clock time) produce
    the *same* signature exactly when the protocol made the same
    decisions.  This is what the sim/live parity tests compare.  It is
    hash-consed: equal entries are one tuple, built from one name per
    WriteId and one sorted-items tuple per version dict.
    """
    vcs: Dict[int, tuple] = {}  # by dict identity: the trace keeps each alive
    names: Dict[int, str] = {}  # by WriteId identity, likewise
    entries: Dict[tuple, tuple] = {}
    signature: Dict[str, List[tuple]] = {}

    def vc(d: Dict[str, int]) -> tuple:
        items = vcs.get(id(d))
        if items is None:
            items = vcs[id(d)] = tuple(sorted(d.items()))
        return items

    def name(wid: WriteId) -> str:
        text = names.get(id(wid))
        if text is None:
            text = names[id(wid)] = str(wid)
        return text

    for event in trace.events:
        if isinstance(event, ApplyEvent):
            entry: tuple = ("apply", name(event.wid), event.global_seq,
                            vc(event.applied_vc))
        elif isinstance(event, InstallEvent):
            entry = ("install", vc(event.version))
        elif isinstance(event, DropEvent):
            entry = ("drop", name(event.wid))
        elif isinstance(event, WriteIssueEvent):
            entry = ("write", name(event.wid), event.store)
        elif isinstance(event, WriteAckEvent):
            entry = ("ack", name(event.wid), event.store)
        elif isinstance(event, ReadEvent):
            entry = ("read", event.store, vc(event.served_vc),
                     vc(event.requirement))
            if event.weight != 1:
                # Weighted (cohort) reads extend the tuple; per-client
                # reads keep the historical 4-tuple so existing golden
                # signatures stay byte-identical.
                entry = entry + (event.weight,)
        else:
            continue
        client = getattr(event, "client_id", None)
        lane = f"store:{event.store}" if client is None else f"client:{client}"
        signature.setdefault(lane, []).append(entries.setdefault(entry, entry))
    # Lanes were opened in event order; sorting them drops that last
    # trace of the global interleaving.
    return dict(sorted(signature.items()))
