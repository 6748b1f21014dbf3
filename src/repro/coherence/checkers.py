"""Trace checkers: machine verification of coherence models.

Each checker consumes a :class:`~repro.coherence.trace.TraceRecorder` and
returns a list of human-readable violation strings (empty = the model
holds).  The checkers are deliberately independent of the protocol
implementations: they re-derive store state from the recorded rows, so a
protocol bug cannot hide itself by lying about its own bookkeeping beyond
the raw events it reports.

Each checker reads the history once: one pass over
:meth:`~repro.coherence.trace.TraceRecorder.rows` folds every store lane
(its applies and installs) or client lane at the same time.  Violations
come out grouped by participant -- in the order the caller named them,
else in first-seen order -- and, within one, in trace order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.coherence.trace import (
    ACK,
    APPLY,
    DROP,
    INSTALL,
    READ,
    WRITE,
    TraceRecorder,
)
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId

Violations = List[str]


def _store_lanes(
    trace: TraceRecorder,
    stores: Optional[Sequence[str]],
    lane: Callable[[], Any],
    step: Callable[[Any, tuple], None],
    other: Optional[Callable[[tuple], None]] = None,
) -> List[Tuple[str, Any]]:
    """Fold every store lane in one pass over the history.

    ``lane()`` makes a store's state and ``step(state, row)`` folds one
    of its apply or install rows into it; any other row naming a store
    (drop, write issue, ack) goes to ``other(row)``.  Returns ``(store,
    state)`` for each of ``stores`` in that order, or else for every
    store in first-seen order (that of
    :meth:`~repro.coherence.trace.TraceRecorder.stores`).
    """
    states: Dict[str, Any] = {}
    for row in trace.rows(APPLY, INSTALL, DROP, WRITE, ACK):
        kind = row[0]
        store = row[2] if kind <= DROP else row[4]
        state = states.get(store)
        if state is None:
            state = states[store] = lane()
        if kind <= INSTALL:
            step(state, row)
        elif other is not None:
            other(row)
    if stores is None:
        return list(states.items())
    return [(store, states[store] if store in states else lane())
            for store in stores]


def _writer_order(seen: Dict[str, int], store: str, row: tuple,
                  gapless: bool, out: Violations) -> None:
    """Fold one apply/install row into ``seen`` (last seqno per writer),
    flagging an apply that inverts (or, if ``gapless``, skips) its
    writer's issue order."""
    if row[0] == INSTALL:
        for client_id, seqno in row[3].items():
            seen[client_id] = max(seen.get(client_id, 0), seqno)
        return
    wid = row[3]
    previous = seen.get(wid.client_id, 0)
    if wid.seqno <= previous:
        out.append(f"PRAM inversion at {store}: applied {wid} after "
                   f"seqno {previous}")
    elif gapless and wid.seqno != previous + 1:
        out.append(f"PRAM gap at {store}: applied {wid} but expected "
                   f"seqno {previous + 1}")
    seen[wid.client_id] = max(previous, wid.seqno)


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
    def step(state: Tuple[Dict[str, int], Violations], row: tuple) -> None:
        _writer_order(state[0], row[2], row, require_gapless, state[1])

    lanes = _store_lanes(trace, stores, lambda: ({}, []), step)
    return [text for _, (_, out) in lanes for text in out]


def check_fifo(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """FIFO: per-client application order monotonic; gaps permitted."""
    return check_pram(trace, stores=stores, require_gapless=False)


def check_causal(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """Causal: gapless PRAM, and dependencies applied before dependents.

    Every PRAM violation (see :func:`check_pram`) comes first, then every
    unsatisfied dependency; the one pass folds both.
    """
    def step(state: tuple, row: tuple) -> None:
        seen, running, order, causal = state
        store = row[2]
        _writer_order(seen, store, row, True, order)
        if row[0] == INSTALL:
            running.merge(row[3])
            return
        wid, deps = row[3], row[5]
        if deps is not None and not running.dominates(VectorClock(deps)):
            causal.append(f"causal violation at {store}: applied {wid} "
                          f"with unsatisfied deps {deps}")
        running.record(wid)

    lanes = _store_lanes(trace, stores,
                         lambda: ({}, VectorClock(), [], []), step)
    return ([text for _, state in lanes for text in state[2]]
            + [text for _, state in lanes for text in state[3]])


def check_sequential(
    trace: TraceRecorder, stores: Optional[Sequence[str]] = None
) -> Violations:
    """Sequential: one global order; each store applies a gapless prefix
    slice of it, and all stores agree on each write's position.

    Position disagreements (over every store, in trace order) come
    first, then each store's out-of-order applies.
    """
    violations: Violations = []
    position: Dict[WriteId, int] = {}

    def step(state: list, row: tuple) -> None:
        if row[0] == INSTALL:
            return
        _, _, store, wid, global_seq, _, _ = row
        if global_seq is None:
            violations.append(
                f"sequential violation: {wid} applied at {store} "
                "without a global sequence number"
            )
            return
        known = position.get(wid)
        if known is not None and known != global_seq:
            violations.append(
                f"sequential violation: {wid} has positions "
                f"{known} and {global_seq}"
            )
        position[wid] = global_seq
        if global_seq != state[0] + 1:
            state[1].append(
                f"sequential violation at {store}: applied global_seq "
                f"{global_seq} after {state[0]}"
            )
        state[0] = global_seq

    lanes = _store_lanes(trace, stores, lambda: [0, []], step)
    return violations + [text for _, (_, out) in lanes for text in out]


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
    issued: Set[WriteId] = set()

    def step(state: Tuple[VectorClock, Set[WriteId]], row: tuple) -> None:
        final, applied = state
        if row[0] == INSTALL:
            final.merge(row[3])
        else:
            applied.add(row[3])
            final.record(row[3])

    def other(row: tuple) -> None:
        if row[0] == WRITE:
            issued.add(row[3])

    lanes = _store_lanes(trace, stores, lambda: (VectorClock(), set()),
                         step, other)
    every = sorted(issued)
    violations: Violations = []
    for store, (final, applied) in lanes:
        for wid in every:
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
    for row in trace.rows(ACK, READ):
        if row[0] == ACK:
            acked.setdefault(row[2], VectorClock()).record(row[3])
            continue
        _, time, store, client_id, served_vc, _, _ = row
        if clients is not None and client_id not in clients:
            continue
        own = acked.get(client_id)
        if own is None:
            continue
        if not VectorClock(served_vc).dominates(own):
            violations.append(
                f"RYW violation: read by {client_id} at "
                f"{store} (t={time:.3f}) missed own writes "
                f"{own.as_dict()} (served {served_vc})"
            )
    return violations


def check_monotonic_reads(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """MR: each client's successive reads see non-decreasing versions."""
    lanes: Dict[str, Tuple[VectorClock, Violations]] = {}
    for row in trace.rows(WRITE, ACK, READ):
        client_id = row[3] if row[0] == READ else row[2]
        lane = lanes.get(client_id)
        if lane is None:
            lane = lanes[client_id] = (VectorClock(), [])
        if row[0] != READ:
            continue
        floor, out = lane
        served = VectorClock(row[4])
        if not served.dominates(floor):
            out.append(
                f"MR violation: read by {client_id} at {row[2]} "
                f"(t={row[1]:.3f}) regressed below {floor.as_dict()}"
            )
        floor.merge(served)
    return [text for client_id in (lanes if clients is None else clients)
            if client_id in lanes for text in lanes[client_id][1]]


def check_monotonic_writes(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """MW (client-PRAM): per client, stores apply writes in issue order."""
    wanted = set(clients) if clients is not None else None

    def step(state: Tuple[Dict[str, int], Violations], row: tuple) -> None:
        seen, out = state
        if row[0] == INSTALL:
            for client_id, seqno in row[3].items():
                seen[client_id] = max(seen.get(client_id, 0), seqno)
            return
        wid = row[3]
        if wanted is not None and wid.client_id not in wanted:
            return
        previous = seen.get(wid.client_id, 0)
        if wid.seqno <= previous:
            out.append(f"MW violation at {row[2]}: {wid} applied after "
                       f"seqno {previous}")
        seen[wid.client_id] = max(previous, wid.seqno)

    lanes = _store_lanes(trace, None, lambda: ({}, []), step)
    return [text for _, (_, out) in lanes for text in out]


def check_writes_follow_reads(
    trace: TraceRecorder, clients: Optional[Sequence[str]] = None
) -> Violations:
    """WFR (client-causal): a write's read-dependencies apply before it.

    A write's dependencies are the ones its issue recorded (a write id is
    issued once).  An apply recorded before its write's issue is judged
    once the pass has read the issue, against the store's version as it
    stood at the apply.
    """
    issued: Set[WriteId] = set()
    deps_of: Dict[WriteId, VectorClock] = {}

    def other(row: tuple) -> None:
        if row[0] != WRITE:
            return
        _, _, client_id, wid, _, deps = row
        issued.add(wid)
        if deps is not None and (clients is None or client_id in clients):
            deps_of[wid] = VectorClock(deps)

    def step(state: Tuple[VectorClock, list], row: tuple) -> None:
        running, out = state
        if row[0] == INSTALL:
            running.merge(row[3])
            return
        wid = row[3]
        if wid in deps_of:
            if not running.dominates(deps_of[wid]):
                out.append(_wfr_violation(row[2], wid, deps_of[wid]))
        elif wid not in issued:
            out.append((row[2], wid, running.copy()))
        running.record(wid)

    lanes = _store_lanes(trace, None, lambda: (VectorClock(), []), step,
                         other)
    violations: Violations = []
    for _, (_, out) in lanes:
        for entry in out:
            if isinstance(entry, str):
                violations.append(entry)
                continue
            store, wid, running = entry
            deps = deps_of.get(wid)
            if deps is not None and not running.dominates(deps):
                violations.append(_wfr_violation(store, wid, deps))
    return violations


def _wfr_violation(store: str, wid: WriteId, deps: VectorClock) -> str:
    return (f"WFR violation at {store}: {wid} applied before "
            f"its read-dependencies {deps.as_dict()}")
