"""The row history against the list-of-events history it replaced.

Hypothesis draws arbitrary sequences of ``record_*`` calls -- weights
other than 1, ``global_seq`` of ``None`` and of 0, ``deps=None``,
installs, drops, empty and missing requirements, dicts passed once or
again -- and records each into a :class:`TraceRecorder` and into
:class:`ListRecorder`, the plain-list recorder as it was before the
history became columns.  Then:

- the events built from the rows equal the list's, and hold the dicts
  passed in, each distinct value as one pooled object;
- ``coherence_signature`` equals the unshared ``reference_signature``;
- every checker's verdicts equal those of the per-store rescans below
  (the checkers as they were before they became one-pass folds).

A write id is issued at most once per sequence, as a client issues it:
the rescan reads dependencies from a write's last issue, the fold from
its issue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import checkers
from repro.coherence import trace as trace_module
from repro.coherence.trace import (
    ApplyEvent,
    DropEvent,
    InstallEvent,
    ReadEvent,
    TraceEvent,
    TraceRecorder,
    WriteAckEvent,
    WriteIssueEvent,
    coherence_signature,
)
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId
from tests.test_trace_retention import reference_signature

Violations = List[str]
#: The one empty requirement both recorders share.
_EMPTY = trace_module._EMPTY


class ListRecorder:
    """The recorder before the row history: one event object per call in
    a list, with install versions and dependency vectors pooled."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.versions: Dict[tuple, Dict[str, int]] = {}

    def _intern(self, version):
        return self.versions.setdefault(tuple(version.items()), version)

    def record_apply(self, time, store, wid, applied_vc, global_seq=None,
                     deps=None):
        if deps is not None:
            deps = self._intern(deps)
        self.events.append(ApplyEvent(time, store, wid, global_seq, deps,
                                      applied_vc))

    def record_install(self, time, store, version):
        self.events.append(InstallEvent(time, store, self._intern(version)))

    def record_drop(self, time, store, wid):
        self.events.append(DropEvent(time, store, wid))

    def record_write_issue(self, time, client_id, wid, store, deps=None):
        if deps is not None:
            deps = self._intern(deps)
        self.events.append(WriteIssueEvent(time, client_id, wid, store, deps))

    def record_write_ack(self, time, client_id, wid, store):
        self.events.append(WriteAckEvent(time, client_id, wid, store))

    def record_read(self, time, store, client_id, served_vc,
                    requirement=None, weight=1):
        self.events.append(ReadEvent(time, store, client_id, served_vc,
                                     requirement or _EMPTY, weight))

    def of_type(self, event_type):
        return [e for e in self.events if isinstance(e, event_type)]

    def stores(self):
        stores = (getattr(e, "store", None) for e in self.events
                  if not isinstance(e, ReadEvent))
        return [name for name in dict.fromkeys(stores) if name is not None]

    def clients(self):
        clients = (getattr(e, "client_id", None) for e in self.events)
        return [name for name in dict.fromkeys(clients) if name is not None]


STORES = ["s0", "s1", "s2"]
#: Writers and readers; "s1" is a store name too.
CLIENTS = ["a", "b", "s1"]
versions = st.dictionaries(st.sampled_from(CLIENTS), st.integers(0, 4),
                           max_size=3)
wids = st.builds(WriteId, st.sampled_from(CLIENTS), st.integers(1, 4))


@st.composite
def histories(draw):
    """A list of ``(method, args)`` record calls over shared dicts."""
    # A few dict objects are passed more than once, as a stamp or a
    # frozen session requirement is; the rest are fresh each time.
    shared = draw(st.lists(versions, max_size=3))

    def version():
        if shared and draw(st.booleans()):
            return shared[draw(st.integers(0, len(shared) - 1))]
        return dict(draw(versions))

    def maybe(value):
        return value() if draw(st.booleans()) else None

    calls = []
    issued: Set[WriteId] = set()
    for _ in range(draw(st.integers(0, 40))):
        time = draw(st.floats(0, 100, allow_nan=False))
        store = draw(st.sampled_from(STORES))
        client = draw(st.sampled_from(CLIENTS))
        kind = draw(st.sampled_from(
            ["apply", "install", "drop", "write", "ack", "read"]))
        if kind == "apply":
            seq = draw(st.one_of(st.none(), st.just(0), st.integers(1, 5)))
            calls.append(("record_apply", (time, store, draw(wids),
                                           version(), seq, maybe(version))))
        elif kind == "install":
            calls.append(("record_install", (time, store, version())))
        elif kind == "drop":
            calls.append(("record_drop", (time, store, draw(wids))))
        elif kind == "write":
            wid = draw(wids)
            if wid not in issued:
                issued.add(wid)
                calls.append(("record_write_issue",
                              (time, wid.client_id, wid, store,
                               maybe(version))))
        elif kind == "ack":
            calls.append(("record_write_ack", (time, client, draw(wids),
                                               store)))
        else:
            requirement = draw(st.one_of(st.none(), st.just({}),
                                         st.builds(version)))
            weight = draw(st.one_of(st.just(1), st.integers(2, 3)))
            calls.append(("record_read", (time, store, client, version(),
                                          requirement, weight)))
    return calls


def recorded(calls):
    rows, listed = TraceRecorder(), ListRecorder()
    for name, args in calls:
        getattr(rows, name)(*args)
        getattr(listed, name)(*args)
    return rows, listed


def dicts_of(events):
    return [value for event in events
            for value in (getattr(event, field, None) for field in (
                "applied_vc", "deps", "version", "served_vc",
                "requirement"))
            if value is not None]


@settings(max_examples=200, deadline=None)
@given(histories())
def test_rows_rebuild_the_listed_events(calls):
    rows, listed = recorded(calls)
    assert len(rows.events) == len(listed.events)
    assert rows.events == listed.events
    assert rows.events[1:-1:2] == listed.events[1:-1:2]
    if calls:
        assert rows.events[-1] == listed.events[-1]
    # Every dict an event holds is one that was passed in (never a
    # copy), and each distinct value is one object.
    passed = {id(value) for _, args in calls for value in args
              if isinstance(value, dict)} | {id(_EMPTY)}
    held = dicts_of(rows.events)
    assert {id(value) for value in held} <= passed
    assert (len({id(value) for value in held})
            == len({tuple(value.items()) for value in held}))
    assert rows.stores() == listed.stores()
    assert rows.clients() == listed.clients()
    for event_type in (TraceEvent, ApplyEvent, ReadEvent, WriteIssueEvent):
        assert rows.of_type(event_type) == listed.of_type(event_type)


@settings(max_examples=200, deadline=None)
@given(histories())
def test_signature_equals_the_reference(calls):
    rows, listed = recorded(calls)
    signature = coherence_signature(rows)
    assert signature == reference_signature(listed)
    assert repr(signature) == repr(reference_signature(listed))


@settings(max_examples=200, deadline=None)
@given(histories(), st.lists(st.sampled_from(STORES + ["nowhere"]),
                             max_size=4),
       st.lists(st.sampled_from(CLIENTS + ["nobody"]), max_size=4))
def test_checkers_agree_with_the_rescans(calls, stores, clients):
    rows, listed = recorded(calls)
    for subset in (None, stores):
        assert (checkers.check_pram(rows, subset)
                == rescan_pram(listed, subset))
        assert (checkers.check_fifo(rows, subset)
                == rescan_fifo(listed, subset))
        assert (checkers.check_causal(rows, subset)
                == rescan_causal(listed, subset))
        assert (checkers.check_sequential(rows, subset)
                == rescan_sequential(listed, subset))
        for superseded in (True, False):
            assert (checkers.check_eventual_delivery(rows, subset,
                                                     superseded)
                    == rescan_eventual_delivery(listed, subset, superseded))
    for subset in (None, clients):
        assert (checkers.check_read_your_writes(rows, subset)
                == rescan_read_your_writes(listed, subset))
        assert (checkers.check_monotonic_reads(rows, subset)
                == rescan_monotonic_reads(listed, subset))
        assert (checkers.check_monotonic_writes(rows, subset)
                == rescan_monotonic_writes(listed, subset))
        assert (checkers.check_writes_follow_reads(rows, subset)
                == rescan_writes_follow_reads(listed, subset))


# -- the checkers as they were: one rescan of the history per store ----------




def _store_scan(
    trace: ListRecorder, store: str
) -> List[object]:
    """Apply/install events of one store, in order."""
    return [
        e for e in trace.events
        if isinstance(e, (ApplyEvent, InstallEvent))
        and getattr(e, "store", None) == store
    ]


def rescan_pram(
    trace: ListRecorder,
    stores: Optional[Sequence[str]] = None,
    require_gapless: bool = True,
) -> Violations:
    """PRAM: every store applies each client's writes in issue order.

    With ``require_gapless`` the per-client sequence at a store must be
    exactly 1, 2, 3, ... between installs (the paper's
    ``expected_write[client]`` check); without it only inversions are
    flagged, which is the right notion for FIFO-optimized stores.
    """
    violations: Violations = []
    for store in stores if stores is not None else trace.stores():
        last_seq: Dict[str, int] = {}
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                for client_id, seqno in event.version.items():
                    last_seq[client_id] = max(last_seq.get(client_id, 0), seqno)
                continue
            assert isinstance(event, ApplyEvent)
            client_id = event.wid.client_id
            previous = last_seq.get(client_id, 0)
            if event.wid.seqno <= previous:
                violations.append(
                    f"PRAM inversion at {store}: applied {event.wid} after "
                    f"seqno {previous}"
                )
            elif require_gapless and event.wid.seqno != previous + 1:
                violations.append(
                    f"PRAM gap at {store}: applied {event.wid} but expected "
                    f"seqno {previous + 1}"
                )
            last_seq[client_id] = max(previous, event.wid.seqno)
    return violations


def rescan_fifo(
    trace: ListRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """FIFO: per-client application order monotonic; gaps permitted."""
    return rescan_pram(trace, stores=stores, require_gapless=False)


def rescan_causal(
    trace: ListRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """Causal: dependencies applied before dependents, everywhere."""
    violations = rescan_pram(trace, stores=stores, require_gapless=True)
    for store in stores if stores is not None else trace.stores():
        running = VectorClock()
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                running.merge(VectorClock(event.version))
                continue
            assert isinstance(event, ApplyEvent)
            if event.deps is not None:
                deps = VectorClock(event.deps)
                if not running.dominates(deps):
                    violations.append(
                        f"causal violation at {store}: applied {event.wid} "
                        f"with unsatisfied deps {event.deps}"
                    )
            running.record(event.wid)
    return violations


def rescan_sequential(
    trace: ListRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """Sequential: one global order; each store applies a gapless prefix
    slice of it, and all stores agree on each write's position."""
    violations: Violations = []
    position: Dict[WriteId, int] = {}
    for event in trace.of_type(ApplyEvent):
        assert isinstance(event, ApplyEvent)
        if event.global_seq is None:
            violations.append(
                f"sequential violation: {event.wid} applied at {event.store} "
                "without a global sequence number"
            )
            continue
        known = position.get(event.wid)
        if known is not None and known != event.global_seq:
            violations.append(
                f"sequential violation: {event.wid} has positions "
                f"{known} and {event.global_seq}"
            )
        position[event.wid] = event.global_seq
    for store in stores if stores is not None else trace.stores():
        last_seen = 0
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                continue
            assert isinstance(event, ApplyEvent)
            if event.global_seq is None:
                continue
            if event.global_seq != last_seen + 1:
                violations.append(
                    f"sequential violation at {store}: applied global_seq "
                    f"{event.global_seq} after {last_seen}"
                )
            last_seen = event.global_seq
    return violations


def rescan_eventual_delivery(
    trace: ListRecorder,
    stores: Optional[Sequence[str]] = None,
    allow_superseded: bool = True,
) -> Violations:
    """Eventual: by end of trace, every store saw every write.

    A write counts as *seen* at a store if the store applied it or (when
    ``allow_superseded``) its final version vector covers it -- FIFO and
    LWW stores legitimately skip superseded writes.
    """
    violations: Violations = []
    issued: Set[WriteId] = {
        e.wid for e in trace.of_type(WriteIssueEvent)  # type: ignore[union-attr]
    }
    for store in stores if stores is not None else trace.stores():
        final = VectorClock()
        applied: Set[WriteId] = set()
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                final.merge(VectorClock(event.version))
            else:
                assert isinstance(event, ApplyEvent)
                applied.add(event.wid)
                final.record(event.wid)
        for wid in sorted(issued):
            if wid in applied:
                continue
            if allow_superseded and final.includes(wid):
                continue
            violations.append(f"eventual violation: {store} never saw {wid}")
    return violations


def rescan_read_your_writes(
    trace: ListRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """RYW: every read reflects all the client's earlier acknowledged writes."""
    violations: Violations = []
    acked: Dict[str, VectorClock] = {}
    for event in trace.events:
        if isinstance(event, WriteAckEvent):
            acked.setdefault(event.client_id, VectorClock()).record(event.wid)
        elif isinstance(event, ReadEvent):
            if clients is not None and event.client_id not in clients:
                continue
            own = acked.get(event.client_id)
            if own is None:
                continue
            served = VectorClock(event.served_vc)
            if not served.dominates(own):
                violations.append(
                    f"RYW violation: read by {event.client_id} at "
                    f"{event.store} (t={event.time:.3f}) missed own writes "
                    f"{own.as_dict()} (served {event.served_vc})"
                )
    return violations


def rescan_monotonic_reads(
    trace: ListRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """MR: each client's successive reads see non-decreasing versions."""
    violations: Violations = []
    reads_by: Dict[str, List[ReadEvent]] = {}
    for event in trace.events:
        if isinstance(event, ReadEvent):
            reads_by.setdefault(event.client_id, []).append(event)
    for client_id in clients if clients is not None else trace.clients():
        floor = VectorClock()
        for event in reads_by.get(client_id, ()):
            served = VectorClock(event.served_vc)
            if not served.dominates(floor):
                violations.append(
                    f"MR violation: read by {client_id} at {event.store} "
                    f"(t={event.time:.3f}) regressed below {floor.as_dict()}"
                )
            floor.merge(served)
    return violations


def rescan_monotonic_writes(
    trace: ListRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """MW (client-PRAM): per client, stores apply writes in issue order."""
    violations: Violations = []
    wanted = set(clients) if clients is not None else None
    for store in trace.stores():
        last_seq: Dict[str, int] = {}
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                for client_id, seqno in event.version.items():
                    last_seq[client_id] = max(last_seq.get(client_id, 0), seqno)
                continue
            assert isinstance(event, ApplyEvent)
            client_id = event.wid.client_id
            if wanted is not None and client_id not in wanted:
                continue
            previous = last_seq.get(client_id, 0)
            if event.wid.seqno <= previous:
                violations.append(
                    f"MW violation at {store}: {event.wid} applied after "
                    f"seqno {previous}"
                )
            last_seq[client_id] = max(previous, event.wid.seqno)
    return violations


def rescan_writes_follow_reads(
    trace: ListRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """WFR (client-causal): a write's read-dependencies apply before it."""
    violations: Violations = []
    deps_of: Dict[WriteId, VectorClock] = {}
    for event in trace.of_type(WriteIssueEvent):
        assert isinstance(event, WriteIssueEvent)
        if clients is not None and event.client_id not in clients:
            continue
        if event.deps is not None:
            deps_of[event.wid] = VectorClock(event.deps)
    for store in trace.stores():
        running = VectorClock()
        for event in _store_scan(trace, store):
            if isinstance(event, InstallEvent):
                running.merge(VectorClock(event.version))
                continue
            assert isinstance(event, ApplyEvent)
            deps = deps_of.get(event.wid)
            if deps is not None and not running.dominates(deps):
                violations.append(
                    f"WFR violation at {store}: {event.wid} applied before "
                    f"its read-dependencies {deps.as_dict()}"
                )
            running.record(event.wid)
    return violations
