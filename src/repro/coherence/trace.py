"""Execution-trace recording.

Every experiment and most tests attach one :class:`TraceRecorder` to the
system under test.  Stores report write applications, installs and drops;
clients report issued writes, acknowledgements and reads.  The checkers in
:mod:`repro.coherence.checkers` then verify the declared coherence models
against the recorded history -- the machine-checked replacement for the
paper's manual observation of its prototype.

The history is stored as columns, in the manner of a column store: each
recorded event is one row of three typed :mod:`array` columns -- a kind
byte, the time as a C double and five 32-bit ids (a number, then ids
into the recorder's tables of names, :class:`~repro.core.ids.WriteId`
values and pooled version dicts), 29 bytes in all.  The columns grow in
chunks of :data:`CHUNK` rows, so a long run never re-allocates and
copies a whole column.  This module alone
knows that layout: readers fold over :meth:`TraceRecorder.rows` in one
pass, and :attr:`TraceRecorder.events` builds typed events on demand.

The same class is the observability recorder: :func:`repro.obs.tracer.
trace_run` installs a fresh one whose :meth:`TraceRecorder.event` hook
sites across the stack record plain, JSONL-ready dicts.  Those dicts keep
a list of their own, and a row points at each.  An event's place in
:attr:`TraceRecorder.events` is its global order.
"""

from __future__ import annotations

import dataclasses
import operator
from array import array
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

#: The one requirement dict of every read that carried none.
_EMPTY: Dict[str, int] = {}
Stamp = Tuple[VectorClock, Dict[str, int]]

#: Row kinds.  :meth:`TraceRecorder.rows` yields each row as its kind
#: followed by its event's fields in declaration order: ``(APPLY, time,
#: store, wid, global_seq, deps, applied_vc)``, ``(INSTALL, time, store,
#: version)``, ``(DROP, time, store, wid)``, ``(WRITE, time, client_id,
#: wid, store, deps)``, ``(ACK, time, client_id, wid, store)``, ``(READ,
#: time, store, client_id, served_vc, requirement, weight)`` and, for an
#: observability dict, ``(NOTE, time, record)``.
APPLY, INSTALL, DROP, WRITE, ACK, READ, NOTE = range(7)

#: Rows per column chunk.
CHUNK = 4096

#: The column types: kind, time, and five ids per row.
_TYPECODES = "Bdi"
#: The ``global_seq`` id of an apply that carried none.
_NO_SEQ = -(2 ** 31)


@dataclasses.dataclass(slots=True)
class TraceEvent:
    """Base event: the recording clock's timestamp.

    Events are built from the recorder's rows when asked for (see
    :attr:`TraceRecorder.events`) and hold the recorder's pooled dicts:
    never mutate one.
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


#: Event type of each coherence row kind.
_TYPES = (ApplyEvent, InstallEvent, DropEvent, WriteIssueEvent,
          WriteAckEvent, ReadEvent)
#: The ``record_*`` method that records each coherence row kind.
_RECORDS = ("record_apply", "record_install", "record_drop",
            "record_write_issue", "record_write_ack", "record_read")


def _event(row: tuple) -> Any:
    """The typed event (or observability dict) of one :meth:`rows` row."""
    kind = row[0]
    if kind == NOTE:
        return row[2]
    return _TYPES[kind](*row[1:])


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


class History(Sequence):
    """A recorder's events in global order, built from its rows on demand.

    Read-only: ``len``, indexing, slicing (a slice is a list) and
    iteration.  Each coherence row becomes a fresh :class:`TraceEvent`
    that holds the recorder's pooled dicts, and an observability row is
    its plain dict.  Equal to a list, or another history, of equal
    events.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "TraceRecorder") -> None:
        self._trace = trace

    def __len__(self) -> int:
        chunks = self._trace._chunks
        return (len(chunks) - 1) * CHUNK + len(chunks[-1][0])

    def __getitem__(self, index: Any) -> Any:
        trace = self._trace
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[at] for at in range(start, stop, step)]
            return [_event(row)
                    for row in trace._scan(trace._window(start, stop))]
        at = operator.index(index)
        size = len(self)
        if at < 0:
            at += size
        if not 0 <= at < size:
            raise IndexError("history index out of range")
        return _event(next(trace._scan(trace._window(at, at + 1))))

    def __iter__(self) -> Iterator[Any]:
        return map(_event, self._trace.rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, History)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"History({list(self)!r})"


class TraceRecorder:
    """Append-only recorder shared by all components of one system."""

    def __init__(self) -> None:
        #: The recorded events, built on demand (see :class:`History`).
        self.events = History(self)
        #: What the rows point at: names (stores and clients) and write
        #: ids (as ``(client_id, seqno)``), numbered in first-seen order;
        #: version dicts; observability dicts.  ``_names`` and ``_wids``
        #: are the id maps' keys, listed when a reader needs them.
        self._name_ids: Dict[str, int] = {}
        self._wid_ids: Dict[Tuple[str, int], int] = {}
        self._names: List[str] = []
        self._wids: List[WriteId] = []
        self._versions: List[Dict[str, int]] = [_EMPTY]
        self._notes: List[Dict[str, Any]] = []
        #: Hash-consing pool: a version's items in order -> its id.
        self._pool: Dict[tuple, int] = {(): 0}
        #: ``id()`` of a dict the recorder keeps alive -> its version id.
        self._version_ids: Dict[int, int] = {id(_EMPTY): 0}
        #: One frozen stamp per applied version (see :meth:`stamp`).
        self._stamps: Dict[tuple, Stamp] = {}
        #: Column chunks, each ``(kinds, times, ids)``; the last,
        #: ``_tail``, is the one rows are appended to.  A row's ids are
        #: ``(n, at, x, y, z)``: a number (``global_seq`` or ``weight``),
        #: its store (or note) and up to three more, by kind.
        self._tail = tuple(map(array, _TYPECODES))
        self._chunks: List[Tuple[array, ...]] = [self._tail]

    def _version(self, version: Dict[str, int]) -> int:
        """The id of the pooled dict equal to ``version``.

        A new value pools ``version`` itself, uncopied: never mutate it.
        """
        versions = self._versions
        at = self._pool.setdefault(tuple(version.items()), len(versions))
        if at == len(versions):
            versions.append(version)
            self._version_ids[id(version)] = at
        return at

    def stamp(self, applied: VectorClock) -> Stamp:
        """``applied``'s frozen copy and dict, one per value: never mutate."""
        key = tuple(applied._entries.items())  # read in place: no call
        pooled = self._stamps.get(key)
        if pooled is None:
            clock = applied.copy()
            pooled = self._stamps[key] = (clock, clock.view())
            # Pooled inline, as in ``_version``; the stamp pool keeps the
            # dict alive, so its id stays its own.
            versions = self._versions
            at = self._pool.setdefault(key, len(versions))
            if at == len(versions):
                versions.append(pooled[1])
            self._version_ids[id(pooled[1])] = at
        return pooled

    def _tables(self) -> Tuple[List[str], List[WriteId], List[Dict[str, int]]]:
        """Names, write ids and versions, each indexed by its row id."""
        if len(self._names) != len(self._name_ids):
            self._names = list(self._name_ids)
        if len(self._wids) != len(self._wid_ids):
            self._wids = [WriteId(*key) for key in self._wid_ids]
        return self._names, self._wids, self._versions

    # -- recording -----------------------------------------------------------
    #
    # Each ``record_*`` appends one row with its lookups inline: a name,
    # write id or version already seen costs a builtin ``get``, and
    # neither a new name or write id nor a new chunk calls a helper.
    # The ids go first, led by the number, the only one that can refuse
    # a value (out of 32-bit range) before any is appended, and the kind
    # last, so a reader that zips the columns sees only whole rows.

    def event(
        self,
        time: float,
        kind: str,
        node: Optional[str] = None,
        obj: Optional[str] = None,
        **detail: Any,
    ) -> None:
        """Record one observability event as a plain dict.

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
        kinds, times, ids = self._tail
        ids.extend((0, len(self._notes), 0, 0, 0))
        times.append(time)
        self._notes.append(record)
        kinds.append(NOTE)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

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

        The recorder keeps ``applied_vc`` uncopied (the engine hands over
        its batch stamp, see :meth:`stamp`) and pools ``deps``: never
        mutate either.
        """
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        wids = self._wid_ids
        key = (wid.client_id, wid.seqno)
        write = wids.get(key)
        if write is None:
            write = wids[key] = len(wids)
        version = self._version_ids.get(id(applied_vc))
        if version is None:
            version = self._version(applied_vc)
        kinds, times, ids = self._tail
        ids.extend((_NO_SEQ if global_seq is None else global_seq, at,
                    write, version,
                    -1 if deps is None else self._version(deps)))
        times.append(time)
        kinds.append(APPLY)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

    def record_install(
        self, time: float, store: str, version: Dict[str, int]
    ) -> None:
        """A store installed ``version`` (pooled uncopied: never mutate it)."""
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        kinds, times, ids = self._tail
        ids.extend((0, at, self._version(version), 0, 0))
        times.append(time)
        kinds.append(INSTALL)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

    def record_drop(self, time: float, store: str, wid: WriteId) -> None:
        """A store discarded a superseded write."""
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        wids = self._wid_ids
        key = (wid.client_id, wid.seqno)
        write = wids.get(key)
        if write is None:
            write = wids[key] = len(wids)
        kinds, times, ids = self._tail
        ids.extend((0, at, write, 0, 0))
        times.append(time)
        kinds.append(DROP)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

    def record_write_issue(
        self,
        time: float,
        client_id: str,
        wid: WriteId,
        store: str,
        deps: Optional[Dict[str, int]] = None,
    ) -> None:
        """A client issued a write; ``deps`` is pooled: never mutate it."""
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        who = names.get(client_id)
        if who is None:
            who = names[client_id] = len(names)
        wids = self._wid_ids
        key = (wid.client_id, wid.seqno)
        write = wids.get(key)
        if write is None:
            write = wids[key] = len(wids)
        kinds, times, ids = self._tail
        ids.extend((0, at, write, who,
                    -1 if deps is None else self._version(deps)))
        times.append(time)
        kinds.append(WRITE)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

    def record_write_ack(
        self, time: float, client_id: str, wid: WriteId, store: str
    ) -> None:
        """A store acknowledged a client's write."""
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        who = names.get(client_id)
        if who is None:
            who = names[client_id] = len(names)
        wids = self._wid_ids
        key = (wid.client_id, wid.seqno)
        write = wids.get(key)
        if write is None:
            write = wids[key] = len(wids)
        kinds, times, ids = self._tail
        ids.extend((0, at, write, who, 0))
        times.append(time)
        kinds.append(ACK)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

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
        (a reply's version, a request's requirement); a new value is
        pooled uncopied, and every empty requirement is the one
        ``_EMPTY``.
        """
        names = self._name_ids
        at = names.get(store)
        if at is None:
            at = names[store] = len(names)
        who = names.get(client_id)
        if who is None:
            who = names[client_id] = len(names)
        versions = self._version_ids
        served = versions.get(id(served_vc))
        if served is None:
            served = self._version(served_vc)
        need = versions.get(id(requirement)) if requirement else 0
        if need is None:
            need = self._version(requirement)  # type: ignore[arg-type]
        kinds, times, ids = self._tail
        ids.extend((weight, at, served, who, need))
        times.append(time)
        kinds.append(READ)
        if len(kinds) == CHUNK:
            self._tail = tail = tuple(map(array, _TYPECODES))
            self._chunks.append(tail)

    # -- reading ---------------------------------------------------------------

    def rows(self, *kinds: int) -> Iterator[tuple]:
        """Every row in global order, or only those of ``kinds``.

        A row is its kind followed by its event's fields (see
        :data:`APPLY`), holding the recorder's pooled dicts: never mutate
        one.  This is the one pass every checker folds over.
        """
        return self._scan(self._chunks, frozenset(kinds or range(NOTE + 1)))

    def _scan(self, chunks: List[Tuple[array, ...]],
              wanted: frozenset = frozenset(range(NOTE + 1)),
              ) -> Iterator[tuple]:
        names, wids, versions = self._tables()
        for kinds, times, ids in chunks:
            row_ids = iter(ids)
            for kind, time, n, at, x, y, z in zip(
                    kinds, times, row_ids, row_ids, row_ids, row_ids, row_ids):
                if kind not in wanted:
                    continue
                if kind == READ:
                    yield (READ, time, names[at], names[y], versions[x],
                           versions[z], n)
                elif kind == APPLY:
                    yield (APPLY, time, names[at], wids[x],
                           None if n == _NO_SEQ else n,
                           None if z < 0 else versions[z], versions[y])
                elif kind == INSTALL:
                    yield (INSTALL, time, names[at], versions[x])
                elif kind == DROP:
                    yield (DROP, time, names[at], wids[x])
                elif kind == WRITE:
                    yield (WRITE, time, names[y], wids[x], names[at],
                           None if z < 0 else versions[z])
                elif kind == ACK:
                    yield (ACK, time, names[y], wids[x], names[at])
                else:
                    yield (NOTE, time, self._notes[at])

    def _window(self, start: int, stop: int) -> List[Tuple[array, ...]]:
        """The column slices holding rows ``start`` to ``stop - 1``."""
        window = []
        for chunk in range(start // CHUNK, -(-stop // CHUNK)):
            low = max(start - chunk * CHUNK, 0)
            high = min(stop - chunk * CHUNK, CHUNK)
            kinds, times, ids = self._chunks[chunk]
            window.append((kinds[low:high], times[low:high],
                           ids[5 * low:5 * high]))
        return window

    def drain(self) -> List[Tuple[str, tuple]]:
        """Hand over every coherence row as a plain call; keep nothing.

        Each call is ``(name, args)``: ``getattr(recorder, name)(*args)``
        records the row again through the same ``record_*`` entry, so a
        ``live-socket`` node forwards what it recorded to the hub's
        recorder this way.  Afterwards this recorder holds no row and no
        pool entry, as if new.  Observability rows are not handed over.
        """
        if not self._stamps and not len(self.events):
            return []  # nothing recorded or pooled since the last drain
        calls = []
        for row in self.rows(APPLY, INSTALL, DROP, WRITE, ACK, READ):
            kind = row[0]
            if kind == APPLY:
                _, time, store, wid, global_seq, deps, applied_vc = row
                args: tuple = (time, store, wid, applied_vc, global_seq, deps)
            else:
                args = row[1:]
            calls.append((_RECORDS[kind], args))
        self.__init__()  # type: ignore[misc]
        return calls

    def of_type(self, event_type: type) -> List[Any]:
        """All events of one type (or its subtypes), in global order."""
        kinds = [kind for kind, cls in enumerate(_TYPES)
                 if issubclass(cls, event_type)]
        return [_event(row) for row in self.rows(*kinds)] if kinds else []

    def stores(self) -> List[str]:
        """Every store named by a non-read event, in first-seen order."""
        seen: Dict[int, None] = {}
        for kinds, _times, ids in self._chunks:
            for kind, at in zip(kinds, ids[1::5]):
                if kind < READ:
                    seen[at] = None
        names = self._tables()[0]
        return [names[at] for at in seen]

    def clients(self) -> List[str]:
        """All clients that issued writes or reads, in first-seen order."""
        seen: Dict[int, None] = {}
        for kinds, _times, ids in self._chunks:
            for kind, who in zip(kinds, ids[3::5]):
                if WRITE <= kind <= READ:
                    seen[who] = None
        names = self._tables()[0]
        return [names[who] for who in seen]


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
    WriteId and one sorted-items tuple per version dict.  One pass over
    the rows folds every lane.
    """
    vcs: Dict[int, tuple] = {}  # by dict identity: the trace keeps each alive
    names: Dict[int, str] = {}  # by WriteId identity, likewise
    entries: Dict[tuple, tuple] = {}
    lanes: Dict[str, List[tuple]] = {}

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

    for row in trace.rows(APPLY, INSTALL, DROP, WRITE, ACK, READ):
        kind = row[0]
        if kind == READ:
            _, _, store, who, served, requirement, weight = row
            entry: tuple = ("read", store, vc(served), vc(requirement))
            if weight != 1:
                # Weighted (cohort) reads extend the tuple; per-client
                # reads keep the historical 4-tuple so existing golden
                # signatures stay byte-identical.
                entry = entry + (weight,)
            lane = "client:" + who
        elif kind == APPLY:
            entry = ("apply", name(row[3]), row[4], vc(row[6]))
            lane = "store:" + row[2]
        elif kind == INSTALL:
            entry = ("install", vc(row[3]))
            lane = "store:" + row[2]
        elif kind == DROP:
            entry = ("drop", name(row[3]))
            lane = "store:" + row[2]
        else:
            entry = ("write" if kind == WRITE else "ack", name(row[3]),
                     row[4])
            lane = "client:" + row[2]
        sequence = lanes.get(lane)
        if sequence is None:
            sequence = lanes[lane] = []
        sequence.append(entries.setdefault(entry, entry))
    # Lanes were opened in event order; sorting them drops that last
    # trace of the global interleaving.
    return dict(sorted(lanes.items()))
