"""Partition-aware metrics: availability, staleness under faults, recovery.

Three measurements the fault grid (experiment X11) adds on top of the
standard staleness/traffic set:

- **unavailable read fraction** -- reads a client issued that were never
  served (dropped into a crashed store, timed out, or still pending when
  the run ended);
- **staleness under partition** -- the mean time lag of reads served by
  stores *cut off from their parent* while the cut was active, i.e. how
  stale the isolated subtree's clients actually ran (reads at connected
  stores do not dilute the number as the tree grows);
- **recovery lag after heal** -- for every heal/restart mark, how long
  until each replica covered all writes acknowledged before the mark
  (replicas that never catch up -- e.g. invalidated caches nobody reads
  -- are charged up to the end of the trace).

Everything here is a pure function of the trace, the client replication
objects and the injector's applied-event log, so the metrics work on
either backend.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.coherence.trace import ACK, APPLY, INSTALL, TraceRecorder
from repro.coherence.vector_clock import VectorClock
from repro.metrics.staleness import read_staleness


def unavailable_read_fraction(clients: Iterable[object]) -> float:
    """Fraction of issued reads that never completed successfully.

    ``clients`` are :class:`~repro.replication.client.
    ClientReplicationObject`-shaped: ``reads_issued`` counts attempts and
    ``read_latencies`` holds one entry per *served* read, so the
    difference is exactly the reads lost to timeouts, crashed stores, or
    run-end truncation.
    """
    issued = 0
    served = 0
    for client in clients:
        issued += client.reads_issued
        served += len(client.read_latencies)
    if issued == 0:
        return 0.0
    return max(0, issued - served) / issued


def _separated(sides: Tuple[frozenset, frozenset], a: str, b: str) -> bool:
    """Whether one cut's sides put ``a`` and ``b`` on opposite shores."""
    side_a, side_b = sides
    return (a in side_a and b in side_b) or (a in side_b and b in side_a)


def staleness_under_partition(
    trace: TraceRecorder,
    cuts: Sequence[Tuple[float, float, Tuple[frozenset, frozenset]]],
    parents: Mapping[str, Optional[str]],
) -> float:
    """Mean staleness time lag of reads served behind an active cut.

    A read counts when, at serve time, some cut in ``cuts`` (the
    injector's :meth:`~repro.faults.injector.FaultInjector.cut_windows`)
    separated the serving store from its parent (``parents`` maps store
    address to upstream address, ``None`` at the primary).  Reads at
    stores still connected to their parent are excluded, so the metric
    measures the isolated subtree rather than averaging it away against
    the healthy side.  Zero when no cut was active or no read landed
    behind one.
    """
    if not cuts:
        return 0.0
    lags: List[float] = []
    for sample in read_staleness(trace):
        parent = parents.get(sample.store)
        if parent is None:
            continue
        if any(
            start <= sample.time <= end
            and _separated(sides, sample.store, parent)
            for start, end, sides in cuts
        ):
            # Weighted: a cohort read behind the cut counts once per
            # represented client, matching the per-client equivalent.
            lags.extend([sample.time_lag] * sample.weight)
    if not lags:
        return 0.0
    return sum(lags) / len(lags)


def recovery_lag_after_heal(
    trace: TraceRecorder, marks: Sequence[float]
) -> float:
    """Mean time from each heal/restart mark to full re-convergence.

    For one mark ``h``: take every write acknowledged at or before ``h``;
    a store has *recovered* at the first trace time its replica version
    (apply/install events) includes them all; the mark's lag is the
    largest ``recover_time - h`` over all stores (0 when every store was
    already current).  A store that never recovers within the trace is
    charged ``end - h`` -- the honest floor, since staleness persisted to
    the end of the observation.  Returns the mean over marks, 0.0 with no
    marks.
    """
    if not marks:
        return 0.0
    # One pass over the trace: each store's (time, version) timeline,
    # the time-ordered ack list and the last event's time, read exactly
    # once however many (mark, store) pairs are evaluated below.
    end = 0.0
    timelines: Dict[str, List[Tuple[float, VectorClock]]] = {}
    acks: List[Tuple[float, object]] = []
    for row in trace.rows():
        kind, end = row[0], row[1]
        if kind == APPLY:
            timelines.setdefault(row[2], []).append(
                (end, VectorClock(row[6])))
        elif kind == INSTALL:
            timelines.setdefault(row[2], []).append(
                (end, VectorClock(row[3])))
        elif kind == ACK:
            acks.append((end, row[3]))
    if not timelines:
        return 0.0
    lags: List[float] = []
    for mark in marks:
        acked = [wid for time, wid in acks if time <= mark]
        if not acked:
            lags.append(0.0)
            continue
        worst = 0.0
        for timeline in timelines.values():
            recovered_at = None
            for time, version in timeline:
                if all(version.includes(wid) for wid in acked):
                    recovered_at = time
                    break
            if recovered_at is None:
                recovered_at = max(end, mark)
            worst = max(worst, max(0.0, recovered_at - mark))
        lags.append(worst)
    return sum(lags) / len(lags)


def fault_run_metrics(deployment) -> Dict[str, float]:
    """The three fault metrics of one finished deployment run.

    Works on fault-free runs too (``deployment.faults`` unset): every
    metric degenerates to its baseline, so the fault grid's ``"none"``
    column aggregates through the identical code path.
    """
    trace = deployment.site.trace
    clients = [
        browser.bound.replication
        for browser in deployment.browsers.values()
    ]
    injector = deployment.faults
    if injector is None:
        cuts: List[Tuple[float, float, Tuple[frozenset, frozenset]]] = []
        marks: List[float] = []
    else:
        cuts = injector.cut_windows(until=deployment.sim.now)
        marks = injector.recovery_marks()
    parents = {
        address: store.engine.parent
        for address, store in deployment.site.dso.stores.items()
    }
    return {
        "unavailable_fraction": unavailable_read_fraction(clients),
        "partition_stale_lag": staleness_under_partition(
            trace, cuts, parents
        ),
        "recovery_lag": recovery_lag_after_heal(trace, marks),
    }
