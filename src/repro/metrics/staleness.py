"""Staleness measurement from execution traces.

A read is *stale* when the version it reflects omits writes that had
already been acknowledged system-wide before the read was served.  Both a
version lag (how many writes were missing) and a time lag (how long the
oldest missing write had been acknowledged) are computed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.coherence.trace import ACK, READ, TraceRecorder
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId
from repro.metrics.report import Summary, summarize


@dataclasses.dataclass(frozen=True)
class StalenessSample:
    """Staleness of a single served read."""

    time: float
    store: str
    client_id: str
    #: Number of acknowledged writes the read missed.
    version_lag: int
    #: Age of the oldest missing acknowledged write (0 when fresh).
    time_lag: float
    #: Identical cohort clients the read stood in for; aggregate
    #: statistics count the sample this many times.
    weight: int = 1

    @property
    def fresh(self) -> bool:
        """Whether the read reflected every acknowledged write."""
        return self.version_lag == 0


def read_staleness(
    trace: TraceRecorder,
    stores: Optional[Sequence[str]] = None,
    clients: Optional[Sequence[str]] = None,
) -> List[StalenessSample]:
    """Per-read staleness samples, in trace order.

    The reference is the set of *acknowledged* writes: a write counts
    against a read's freshness from the moment its origin client saw the
    ack (by then it is durable at the primary permanent store).
    """
    samples: List[StalenessSample] = []
    acked: Dict[WriteId, float] = {}
    for row in trace.rows(ACK, READ):
        if row[0] == ACK:
            acked.setdefault(row[3], row[1])
            continue
        _, time, store, client_id, served_vc, _, weight = row
        if stores is not None and store not in stores:
            continue
        if clients is not None and client_id not in clients:
            continue
        served = VectorClock(served_vc)
        missing = [
            (wid, ack_time)
            for wid, ack_time in acked.items()
            if not served.includes(wid)
        ]
        time_lag = 0.0
        if missing:
            oldest = min(ack_time for _, ack_time in missing)
            time_lag = max(0.0, time - oldest)
        samples.append(
            StalenessSample(
                time=time,
                store=store,
                client_id=client_id,
                version_lag=len(missing),
                time_lag=time_lag,
                weight=weight,
            )
        )
    return samples


@dataclasses.dataclass(frozen=True)
class StalenessSummary:
    """Aggregate staleness over a run."""

    reads: int
    stale_reads: int
    version_lag: Summary
    time_lag: Summary

    @property
    def stale_fraction(self) -> float:
        """Fraction of reads that missed at least one acknowledged write."""
        if self.reads == 0:
            return 0.0
        return self.stale_reads / self.reads


def staleness_summary(
    trace: TraceRecorder,
    stores: Optional[Sequence[str]] = None,
    clients: Optional[Sequence[str]] = None,
) -> StalenessSummary:
    """Summarize :func:`read_staleness` over a trace.

    Cohort reads count once per represented client: a weight-``w`` sample
    contributes ``w`` reads (and ``w`` copies of its lags), so a cohorted
    run summarizes exactly like the per-client run it stands in for.
    """
    samples = read_staleness(trace, stores=stores, clients=clients)
    version_lags: List[float] = []
    time_lags: List[float] = []
    for sample in samples:
        version_lags.extend([float(sample.version_lag)] * sample.weight)
        time_lags.extend([sample.time_lag] * sample.weight)
    return StalenessSummary(
        reads=sum(s.weight for s in samples),
        stale_reads=sum(s.weight for s in samples if not s.fresh),
        version_lag=summarize(version_lags),
        time_lag=summarize(time_lags),
    )
