"""Experiments X1, X2, X6: sweeps over the Table-1 parameter axes.

The paper argues qualitatively (Section 3.3) that the right setting of
each implementation parameter depends on the object's usage; these sweeps
measure it:

- **X1** transfer instant: immediate vs lazy aggregation for a hot,
  frequently-written object ("it may be more efficient to implement a
  periodic update in which several updates are aggregated");
- **X2** consistency propagation: update vs invalidate across read/write
  ratios;
- **X6** transfer initiative (push vs pull) and transfer types
  (partial vs full).

Each sweep declares its points as a :class:`~repro.exec.SweepSpec` and a
pure module-level point function, so :func:`repro.exec.run_sweep` can fan
the points out over a worker pool and cache finished results.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, RunMetrics, measure
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    Propagation,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.workload.profiles import WorkloadProfile, default_pages, run_profile
from repro.workload.scenarios import Deployment

#: A ten-page document with ~1 KiB pages, so partial-vs-full differences
#: are visible in the byte counts.
PAGES = default_pages()


def _run_deployment(
    policy: ReplicationPolicy,
    seed: int,
    n_caches: int,
    writes: int,
    reads_per_client: int,
    write_interval: float = 0.5,
    read_think: float = 0.5,
    incremental: bool = False,
    horizon: Optional[float] = None,
) -> Deployment:
    profile = WorkloadProfile(
        name="sweep",
        writes=writes,
        reads_per_client=reads_per_client,
        write_interval=write_interval,
        read_think=read_think,
        incremental=incremental,
        payload_bytes=1024,
    )
    return run_profile(policy, profile, n_caches=n_caches, seed=seed,
                       pages=dict(PAGES), horizon=horizon)


# --------------------------------------------------------------------------
# X1: transfer instant
# --------------------------------------------------------------------------


def run_x1_point(config: Dict[str, Any], seed: int) -> RunMetrics:
    """One X1 point: one transfer-instant setting, measured."""
    interval = config["interval"]
    lazy = {} if interval is None else dict(
        transfer_instant=TransferInstant.LAZY, lazy_interval=interval,
    )
    policy = ReplicationPolicy(
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        **lazy,
    )
    deployment = _run_deployment(
        policy, seed=seed, n_caches=config["n_caches"],
        writes=config["writes"], reads_per_client=10, incremental=False,
    )
    return measure(deployment)


def run_transfer_instant(
    seed: int = 0,
    writes: int = 40,
    n_caches: int = 8,
    lazy_intervals: tuple = (1.0, 5.0, 20.0),
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X1: immediate vs lazy update propagation for a hot object."""
    result = ExperimentResult(
        name="X1: Transfer instant -- immediate vs lazy (aggregated) updates",
        headers=[
            "Setting", "coherence msgs", "total wire KB",
            "stale read fraction", "mean time lag (s)",
        ],
    )
    spec = SweepSpec(name="x1-transfer-instant", run_point=run_x1_point,
                     base_seed=seed, paired=True)
    spec.add("immediate", interval=None, writes=writes, n_caches=n_caches)
    for interval in lazy_intervals:
        spec.add(f"lazy ({interval:g}s)", interval=interval, writes=writes,
                 n_caches=n_caches)
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, metrics in measured.items():
        result.add_row(
            label,
            metrics.traffic.coherence_messages,
            f"{metrics.traffic.bytes_sent / 1024:.1f}",
            f"{metrics.stale_fraction:.3f}",
            f"{metrics.mean_time_lag:.3f}",
        )
    result.data["measured"] = measured
    immediate = measured["immediate"]
    lazy = [measured[f"lazy ({interval:g}s)"]
            for interval in sorted(lazy_intervals)]
    lazy_msgs = [run.traffic.coherence_messages for run in lazy]
    result.claim(
        "every lazy window sends fewer coherence messages than immediate, "
        "and no more than the next shorter window",
        all(msgs < immediate.traffic.coherence_messages for msgs in lazy_msgs)
        and lazy_msgs == sorted(lazy_msgs, reverse=True),
    )
    result.claim(
        "immediate serves no stale read; every lazy window lags longer",
        immediate.stale_fraction == 0.0
        and all(run.mean_time_lag > immediate.mean_time_lag for run in lazy),
    )
    return result


# --------------------------------------------------------------------------
# X2: consistency propagation
# --------------------------------------------------------------------------


def run_x2_point(config: Dict[str, Any], seed: int) -> RunMetrics:
    """One X2 point: one (read ratio, propagation) cell, measured."""
    policy = ReplicationPolicy(
        propagation=Propagation(config["propagation"]),
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
    )
    writes, n_caches = config["writes"], config["n_caches"]
    reads_per_client = max(1, int(writes * config["ratio"] / n_caches))
    deployment = _run_deployment(
        policy, seed=seed, n_caches=n_caches, writes=writes,
        reads_per_client=reads_per_client, incremental=False,
    )
    return measure(deployment)


def run_propagation(
    seed: int = 0,
    writes: int = 30,
    read_ratios: tuple = (0.2, 1.0, 5.0),
    n_caches: int = 4,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X2: update vs invalidate across read/write ratios."""
    result = ExperimentResult(
        name="X2: Consistency propagation -- update vs invalidate",
        headers=[
            "reads per write", "propagation", "bytes on wire",
            "coherence msgs", "mean read latency (s)",
        ],
    )
    spec = SweepSpec(name="x2-propagation", run_point=run_x2_point,
                     base_seed=seed, paired=True)
    # The (ratio x propagation) cross is exactly a dense grid; the
    # derived reads-per-client count moves into the point function so
    # the axes stay pure.
    spec.add_grid(
        _fixed={"writes": writes, "n_caches": n_caches},
        ratio=read_ratios,
        propagation=[
            p.value for p in (Propagation.UPDATE, Propagation.INVALIDATE)
        ],
    )
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for (ratio, propagation), metrics in measured.items():
        result.add_row(
            f"{ratio:g}",
            propagation,
            metrics.traffic.bytes_sent,
            metrics.traffic.coherence_messages,
            f"{metrics.mean_read_latency:.4f}",
        )
    result.data["measured"] = measured
    low, high = min(read_ratios), max(read_ratios)
    gap = {ratio: measured[(ratio, "update")].traffic.bytes_sent
           - measured[(ratio, "invalidate")].traffic.bytes_sent
           for ratio in (low, high)}
    result.claim(f"at {low:g} reads per write, invalidate ships fewer bytes "
                 "than update", gap[low] > 0)
    result.claim(
        f"at {high:g} reads per write, update's mean read latency is at "
        "most invalidate's",
        measured[(high, "update")].mean_read_latency
        <= measured[(high, "invalidate")].mean_read_latency,
    )
    result.claim("the update-invalidate byte gap narrows as reads grow",
                 gap[high] < gap[low])
    return result


# --------------------------------------------------------------------------
# X6: transfer initiative and transfer types
# --------------------------------------------------------------------------


def run_x6_point(config: Dict[str, Any], seed: int) -> RunMetrics:
    """One X6 point: one (initiative, instant, transfers) variant."""
    initiative = TransferInitiative(config["initiative"])
    policy = ReplicationPolicy(
        transfer_initiative=initiative,
        transfer_instant=TransferInstant(config["instant"]),
        coherence_transfer=CoherenceTransfer(config["coherence"]),
        access_transfer=AccessTransfer(config["access"]),
        lazy_interval=2.0,
    )
    horizon = 60.0 if initiative is TransferInitiative.PULL else None
    deployment = _run_deployment(
        policy, seed=seed, n_caches=config["n_caches"],
        writes=config["writes"], reads_per_client=10, incremental=False,
        horizon=horizon,
    )
    return measure(deployment)


def run_initiative_and_transfer(
    seed: int = 0,
    writes: int = 20,
    n_caches: int = 4,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X6: push vs pull initiative, partial vs full transfer types."""
    result = ExperimentResult(
        name="X6: Transfer initiative and transfer types",
        headers=[
            "initiative", "instant", "coherence transfer", "access transfer",
            "bytes on wire", "coherence msgs", "stale fraction",
            "mean read latency (s)",
        ],
    )
    variants = [
        (TransferInitiative.PUSH, TransferInstant.IMMEDIATE,
         CoherenceTransfer.PARTIAL, AccessTransfer.PARTIAL),
        (TransferInitiative.PUSH, TransferInstant.IMMEDIATE,
         CoherenceTransfer.FULL, AccessTransfer.FULL),
        (TransferInitiative.PULL, TransferInstant.IMMEDIATE,
         CoherenceTransfer.PARTIAL, AccessTransfer.PARTIAL),
        (TransferInitiative.PULL, TransferInstant.LAZY,
         CoherenceTransfer.PARTIAL, AccessTransfer.PARTIAL),
    ]
    spec = SweepSpec(name="x6-initiative-transfer", run_point=run_x6_point,
                     base_seed=seed, paired=True)
    for initiative, instant, coherence, access in variants:
        spec.add(
            (initiative.value, instant.value, coherence.value, access.value),
            initiative=initiative,
            instant=instant,
            coherence=coherence,
            access=access,
            writes=writes,
            n_caches=n_caches,
        )
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for (initiative, instant, coherence, access), metrics in measured.items():
        result.add_row(
            initiative,
            instant,
            coherence,
            access,
            metrics.traffic.bytes_sent,
            metrics.traffic.coherence_messages,
            f"{metrics.stale_fraction:.3f}",
            f"{metrics.mean_read_latency:.4f}",
        )
    result.data["measured"] = measured
    push, full, pull_now, pull_lazy = (
        measured[tuple(axis.value for axis in variant)]
        for variant in variants
    )
    result.claim("full transfer ships over twice partial's bytes",
                 full.traffic.bytes_sent > 2 * push.traffic.bytes_sent)
    result.claim(
        "pull-on-access reads slower than push, and never stale",
        pull_now.mean_read_latency > push.mean_read_latency
        and pull_now.stale_fraction == 0.0,
    )
    result.claim(
        "periodic pull reads faster than pull-on-access, and sometimes stale",
        pull_lazy.mean_read_latency < pull_now.mean_read_latency
        and pull_lazy.stale_fraction > 0.0,
    )
    return result
