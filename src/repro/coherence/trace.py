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
from typing import Any, Dict, List, Mapping, Optional

from repro.core.ids import WriteId


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
        over a dict no one mutates (the engine passes its batch's stamp,
        shared by every record of the batch), and no reader mutates it.
        """
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
        """A store installed a full snapshot covering ``version``."""
        self.events.append(
            InstallEvent(time=time, store=store, version=dict(version))
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
        """A client submitted a write to a store."""
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
        (a reply's version, a request's requirement), kept uncopied.
        """
        self.events.append(
            ReadEvent(
                time=time, store=store, client_id=client_id,
                served_vc=served_vc, requirement=requirement or {},
                weight=weight,
            )
        )

    # -- accessors -----------------------------------------------------------

    def of_type(self, event_type: type) -> List[TraceEvent]:
        """All events of one type, in global order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def stores(self) -> List[str]:
        """All stores that applied or installed anything, in first-seen order."""
        seen: List[str] = []
        for event in self.events:
            store = getattr(event, "store", None)
            if store is not None and not isinstance(event, (ReadEvent,)):
                if store not in seen:
                    seen.append(store)
        return seen

    def clients(self) -> List[str]:
        """All clients that issued writes or reads, in first-seen order."""
        seen: List[str] = []
        for event in self.events:
            client = getattr(event, "client_id", None)
            if client is not None and client not in seen:
                seen.append(client)
        return seen

    def reads_by(self, client_id: str) -> List[ReadEvent]:
        """Reads served to one client, in serve order."""
        return [
            e for e in self.events
            if isinstance(e, ReadEvent) and e.client_id == client_id
        ]


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
    decisions.  This is what the sim/live parity tests compare.
    """
    def vc(d: Dict[str, int]) -> tuple:
        return tuple(sorted(d.items()))

    signature: Dict[str, List[tuple]] = {}

    def lane(kind: str, name: str) -> List[tuple]:
        return signature.setdefault(f"{kind}:{name}", [])

    for event in trace.events:
        if isinstance(event, ApplyEvent):
            lane("store", event.store).append(
                ("apply", str(event.wid), event.global_seq,
                 vc(event.applied_vc))
            )
        elif isinstance(event, InstallEvent):
            lane("store", event.store).append(
                ("install", vc(event.version))
            )
        elif isinstance(event, DropEvent):
            lane("store", event.store).append(("drop", str(event.wid)))
        elif isinstance(event, WriteIssueEvent):
            lane("client", event.client_id).append(
                ("write", str(event.wid), event.store)
            )
        elif isinstance(event, WriteAckEvent):
            lane("client", event.client_id).append(
                ("ack", str(event.wid), event.store)
            )
        elif isinstance(event, ReadEvent):
            entry = ("read", event.store, vc(event.served_vc),
                     vc(event.requirement))
            if event.weight != 1:
                # Weighted (cohort) reads extend the tuple; per-client
                # reads keep the historical 4-tuple so existing golden
                # signatures stay byte-identical.
                entry = entry + (event.weight,)
            lane("client", event.client_id).append(entry)
    # Lanes were opened in event order; sorting them drops that last
    # trace of the global interleaving.
    return dict(sorted(signature.items()))
