"""Common experiment plumbing: results, rendering, metric collection."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coherence.trace import TraceRecorder
from repro.metrics.staleness import staleness_summary
from repro.metrics.tables import render_table
from repro.metrics.traffic import TrafficSummary, collect_traffic
from repro.workload.scenarios import Deployment


@dataclasses.dataclass
class ExperimentResult:
    """Rows, measured data and checked claims for one experiment.

    ``rows``/``headers`` are what the harness prints (the paper-table
    analog); ``data`` carries the raw measurements; ``claims`` are the
    paper's qualitative claims, each with whether this run bears it out.
    """

    name: str
    headers: List[str]
    rows: List[List[Any]] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)
    claims: List[Tuple[str, bool]] = dataclasses.field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append one result row."""
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        """Attach a free-form note printed under the table."""
        self.notes.append(text)

    def claim(self, text: str, holds: bool) -> None:
        """State one claim and whether this run's measurements bear it out."""
        self.claims.append((text, bool(holds)))

    def failed_claims(self) -> List[str]:
        """The text of every claim this run does not bear out."""
        return [text for text, holds in self.claims if not holds]

    def render(self) -> str:
        """The printable experiment report: table, notes, claim verdicts."""
        parts = [render_table(self.headers, self.rows, title=self.name)]
        parts.extend(f"  note: {note}" for note in self.notes)
        parts.extend(
            f"  claim: {text} -- {'holds' if holds else 'FAILS'}"
            for text, holds in self.claims
        )
        return "\n".join(parts)


@dataclasses.dataclass
class RunMetrics:
    """Metrics extracted from one deployment run."""

    traffic: TrafficSummary
    stale_fraction: float
    mean_version_lag: float
    mean_time_lag: float
    mean_read_latency: float
    mean_write_latency: float
    reads: int


def measure(deployment: Deployment,
            trace: Optional[TraceRecorder] = None) -> RunMetrics:
    """Collect the standard metric set from a finished deployment run."""
    trace = trace if trace is not None else deployment.site.trace
    stale = staleness_summary(trace)
    read_latencies: List[float] = []
    write_latencies: List[float] = []
    for browser in deployment.browsers.values():
        read_latencies += browser.bound.replication.read_latencies
        write_latencies += browser.bound.replication.write_latencies
    return RunMetrics(
        traffic=collect_traffic(deployment.network, deployment.engines),
        stale_fraction=stale.stale_fraction,
        mean_version_lag=stale.version_lag.mean,
        mean_time_lag=stale.time_lag.mean,
        mean_read_latency=(
            sum(read_latencies) / len(read_latencies) if read_latencies else 0.0
        ),
        mean_write_latency=(
            sum(write_latencies) / len(write_latencies)
            if write_latencies else 0.0
        ),
        reads=stale.reads,
    )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for empty input."""
    return sum(values) / len(values) if values else 0.0
