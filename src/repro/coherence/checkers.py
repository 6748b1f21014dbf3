"""Trace checkers: machine verification of coherence models.

Each checker consumes a :class:`~repro.coherence.trace.TraceRecorder` and
returns a list of human-readable violation strings (empty = the model
holds).  The checkers are deliberately independent of the protocol
implementations: they re-derive store state by scanning the trace, so a
protocol bug cannot hide itself by lying about its own bookkeeping beyond
the raw events it reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.coherence.trace import (
    ApplyEvent,
    InstallEvent,
    ReadEvent,
    TraceRecorder,
    WriteAckEvent,
    WriteIssueEvent,
)
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

Violations = List[str]


def _store_scan(
    trace: TraceRecorder, store: str
) -> List[object]:
    """Apply/install events of one store, in order."""
    return [
        e for e in trace.events
        if isinstance(e, (ApplyEvent, InstallEvent))
        and getattr(e, "store", None) == store
    ]


def check_pram(
    trace: TraceRecorder,
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


def check_fifo(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """FIFO: per-client application order monotonic; gaps permitted."""
    return check_pram(trace, stores=stores, require_gapless=False)


def check_causal(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """Causal: dependencies applied before dependents, everywhere."""
    violations = check_pram(trace, stores=stores, require_gapless=True)
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


def check_sequential(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
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


def check_eventual_delivery(
    trace: TraceRecorder,
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


def check_convergence(final_states: Dict[str, object]) -> Violations:
    """All replicas ended in the same state (pass semantics snapshots)."""
    violations: Violations = []
    items = sorted(final_states.items())
    if not items:
        return violations
    reference_store, reference = items[0]
    for store, state in items[1:]:
        if state != reference:
            violations.append(
                f"divergence: {store} differs from {reference_store}"
            )
    return violations


def check_read_your_writes(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
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


def check_monotonic_reads(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
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


def check_monotonic_writes(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
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


def check_writes_follow_reads(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
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
