"""Named cross-product grids over the Table-1 parameter space.

A :class:`GridDef` is a declarative description of one dense sweep:
which replication strategies (:data:`STRATEGIES`, each a named point in
the paper's Table-1 parameter space), which workload profiles
(:data:`~repro.workload.profiles.PROFILES`), which topology sizes, and
how many independent replications per cell.  :func:`grid_spec` expands a
grid into a :class:`~repro.exec.SweepSpec` via
:meth:`~repro.exec.SweepSpec.add_grid`, and :func:`run_grid` executes it
through the cached parallel runner -- so a grid is grown incrementally:
every finished cell stays cached and re-renders are near-instant.

Point configs carry only *names* (protocol, workload, fault plan) plus
scalars; the expansion to policies, traffic and fault events lives in the
registries here, in :mod:`repro.workload.profiles` and in
:mod:`repro.faults.catalog`.  Any edit to those sources rotates the
cache's code fingerprint, so stale grid cells can never be served.

A grid whose :attr:`GridDef.fault_plans` is non-empty is a *fault grid*
(experiment X11): its column axis is the fault plan instead of the
workload, and the partition-aware metric columns
(:data:`FAULT_METRIC_KEYS`) join the base set.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.exec import ResultCache, SweepSpec, run_sweep
from repro.faults.catalog import FAULT_PLANS
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    Propagation,
    ReplicationPolicy,
    TransferInitiative,
    TransferInstant,
)
from repro.workload.profiles import get_profile, run_profile


@dataclasses.dataclass(frozen=True)
class ProtocolStrategy:
    """One named point in Table 1's implementation-parameter space."""

    name: str
    propagation: Propagation
    transfer_initiative: TransferInitiative
    transfer_instant: TransferInstant
    coherence_transfer: CoherenceTransfer
    access_transfer: AccessTransfer
    lazy_interval: float = 2.0
    #: Pull-based strategies never quiesce (the pull timer re-arms), so
    #: their runs are cut at a fixed virtual-time horizon instead.
    horizon: Optional[float] = None

    def build_policy(self) -> ReplicationPolicy:
        """The validated :class:`ReplicationPolicy` this strategy names."""
        return ReplicationPolicy(
            propagation=self.propagation,
            transfer_initiative=self.transfer_initiative,
            transfer_instant=self.transfer_instant,
            coherence_transfer=self.coherence_transfer,
            access_transfer=self.access_transfer,
            lazy_interval=self.lazy_interval,
        ).validate()

    def table1_cells(self) -> Tuple[str, str, str, str, str]:
        """This strategy's Table-1 parameter values, for the crosswalk."""
        return (
            self.propagation.value,
            self.transfer_initiative.value,
            self.transfer_instant.value,
            self.coherence_transfer.value,
            self.access_transfer.value,
        )


#: The protocol axis: six strategies spanning Table 1's propagation,
#: initiative, instant and transfer-type rows (the store-scope and
#: write-set rows are held at their defaults: all layers, single writer).
STRATEGIES: Dict[str, ProtocolStrategy] = {
    strategy.name: strategy
    for strategy in (
        ProtocolStrategy(
            name="push-update",
            propagation=Propagation.UPDATE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.IMMEDIATE,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
        ),
        ProtocolStrategy(
            name="push-update-lazy",
            propagation=Propagation.UPDATE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.LAZY,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
        ),
        ProtocolStrategy(
            name="push-invalidate",
            propagation=Propagation.INVALIDATE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.IMMEDIATE,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
        ),
        ProtocolStrategy(
            name="push-notify",
            propagation=Propagation.INVALIDATE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.IMMEDIATE,
            coherence_transfer=CoherenceTransfer.NOTIFICATION,
            access_transfer=AccessTransfer.PARTIAL,
        ),
        ProtocolStrategy(
            name="push-full",
            propagation=Propagation.UPDATE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.IMMEDIATE,
            coherence_transfer=CoherenceTransfer.FULL,
            access_transfer=AccessTransfer.FULL,
        ),
        ProtocolStrategy(
            name="pull-periodic",
            propagation=Propagation.UPDATE,
            transfer_initiative=TransferInitiative.PULL,
            transfer_instant=TransferInstant.LAZY,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
            horizon=60.0,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class MetricDef:
    """One cell metric of the results book."""

    key: str
    title: str
    unit: str
    #: ``format(value, fmt)`` spec used everywhere the metric renders.
    fmt: str
    description: str
    #: ``True`` when smaller values are better (heat maps note it).
    lower_is_better: bool = True


#: Metrics extracted from every grid point, one heat map each.
METRICS: Dict[str, MetricDef] = {
    metric.key: metric
    for metric in (
        MetricDef(
            key="wire_kb",
            title="Total wire traffic",
            unit="KiB",
            fmt=".1f",
            description=(
                "Bytes crossing the simulated network over the whole run "
                "(access + coherence traffic), in KiB."
            ),
        ),
        MetricDef(
            key="coherence_messages",
            title="Coherence messages",
            unit="msgs",
            fmt=".1f",
            description=(
                "Datagrams carrying coherence information (updates, "
                "invalidations, notifications, pulls)."
            ),
        ),
        MetricDef(
            key="stale_fraction",
            title="Stale read fraction",
            unit="fraction",
            fmt=".3f",
            description=(
                "Fraction of reads served from a replica missing at least "
                "one already-acknowledged write."
            ),
        ),
        MetricDef(
            key="mean_time_lag",
            title="Mean staleness time lag",
            unit="s",
            fmt=".3f",
            description=(
                "Mean age of the oldest acknowledged-but-missing write "
                "behind a stale read (0 when fresh)."
            ),
        ),
        MetricDef(
            key="mean_read_latency",
            title="Mean read latency",
            unit="s",
            fmt=".4f",
            description=(
                "Mean client-observed read latency, including demand "
                "round trips for outdated replicas."
            ),
        ),
        MetricDef(
            key="unavailable_fraction",
            title="Unavailable read fraction",
            unit="fraction",
            fmt=".3f",
            description=(
                "Fraction of issued reads never served: dropped into a "
                "crashed store, timed out, or still pending at run end."
            ),
        ),
        MetricDef(
            key="partition_stale_lag",
            title="Staleness under partition",
            unit="s",
            fmt=".3f",
            description=(
                "Mean staleness time lag of reads served by stores cut "
                "off from their parent while a partition was active "
                "(reads on the connected side are excluded)."
            ),
        ),
        MetricDef(
            key="recovery_lag",
            title="Recovery lag after heal",
            unit="s",
            fmt=".3f",
            description=(
                "Mean time from each heal/restart until every replica "
                "covered the writes acknowledged before it."
            ),
        ),
    )
}

#: Extra metric keys only fault grids report (and only
#: :func:`run_fault_grid_point` produces).
FAULT_METRIC_KEYS: Tuple[str, ...] = (
    "unavailable_fraction",
    "partition_stale_lag",
    "recovery_lag",
)

#: Metric keys of the classic (fault-free) grids: derived from the
#: registry so a newly registered MetricDef joins every book without a
#: second list to update.
BASE_METRIC_KEYS: Tuple[str, ...] = tuple(
    key for key in METRICS if key not in FAULT_METRIC_KEYS
)

#: Client request timeout/retries for fault-grid points: operations into
#: a crashed store fail fast (and count as unavailable) instead of
#: stalling their client for the rest of the run.
FAULT_REQUEST_TIMEOUT = 1.0
FAULT_REQUEST_RETRIES = 1


def run_grid_point(config: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Evaluate one grid cell replication: one policy, one workload, one tree.

    ``config`` carries names and scalars only (``protocol``, ``workload``,
    ``n_caches``, ``rep``); the expansion to a policy and a traffic mix
    happens here so the cache key stays plain data.  Returns the flat
    metric dict the aggregation layer consumes.
    """
    strategy = STRATEGIES[config["protocol"]]
    profile = get_profile(config["workload"])
    deployment = run_profile(
        strategy.build_policy(),
        profile,
        n_caches=int(config["n_caches"]),
        seed=seed,
        horizon=strategy.horizon,
    )
    return _base_metrics(deployment)


def _base_metrics(deployment) -> Dict[str, float]:
    """Extract the base metric set from one finished deployment."""
    # Imported here (not module top) to keep the report layer importable
    # without dragging the whole experiments package in at import time.
    from repro.experiments.harness import measure

    metrics = measure(deployment)
    return {
        "wire_kb": metrics.traffic.bytes_sent / 1024.0,
        "coherence_messages": float(metrics.traffic.coherence_messages),
        "stale_fraction": metrics.stale_fraction,
        "mean_time_lag": metrics.mean_time_lag,
        "mean_read_latency": metrics.mean_read_latency,
    }


def run_fault_grid_point(config: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Evaluate one fault-grid cell: one policy, one fault plan, one tree.

    Like :func:`run_grid_point` plus a ``fault_plan`` name expanded by
    :func:`~repro.workload.profiles.run_profile` (stable config-hash
    seeding: the plan's RNG forks from this point's derived seed) and
    the partition-aware metric columns from
    :mod:`repro.metrics.faults`.
    """
    from repro.metrics.faults import fault_run_metrics

    strategy = STRATEGIES[config["protocol"]]
    profile = get_profile(config["workload"])
    deployment = run_profile(
        strategy.build_policy(),
        profile,
        n_caches=int(config["n_caches"]),
        seed=seed,
        horizon=strategy.horizon,
        fault_plan=config["fault_plan"],
        request_timeout=FAULT_REQUEST_TIMEOUT,
        request_retries=FAULT_REQUEST_RETRIES,
    )
    result = _base_metrics(deployment)
    result.update(fault_run_metrics(deployment))
    return result


@dataclasses.dataclass(frozen=True)
class GridDef:
    """One named dense sweep over (protocol x column axis x size x rep).

    The column axis is the workload profile by default; a grid with
    ``fault_plans`` set is a *fault grid*: its column axis is the fault
    plan (experiment X11), the single entry of ``workloads`` is held
    fixed in every cell, and the partition-aware metrics join the book.
    """

    name: str
    title: str
    description: str
    protocols: Tuple[str, ...]
    workloads: Tuple[str, ...]
    sizes: Tuple[int, ...]
    replications: int
    base_seed: int = 0
    fault_plans: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Validate the fault-grid shape at declaration time."""
        if self.fault_plans and len(self.workloads) != 1:
            raise ValueError(
                f"fault grid {self.name!r} must fix exactly one "
                f"workload, got {self.workloads!r}"
            )

    @property
    def is_fault_grid(self) -> bool:
        """Whether the column axis is the fault plan."""
        return bool(self.fault_plans)

    @property
    def col_axis(self) -> str:
        """Config-key name of the column axis."""
        return "fault_plan" if self.is_fault_grid else "workload"

    def col_values(self) -> Tuple[str, ...]:
        """Values of the column axis, in declaration order."""
        return self.fault_plans if self.is_fault_grid else self.workloads

    def metric_keys(self) -> Tuple[str, ...]:
        """The metric columns this grid's book renders."""
        if self.is_fault_grid:
            return BASE_METRIC_KEYS + FAULT_METRIC_KEYS
        return BASE_METRIC_KEYS

    def axes(self) -> "Dict[str, Tuple[Any, ...]]":
        """Ordered grid axes, last varying fastest (``rep`` innermost)."""
        return {
            "protocol": self.protocols,
            self.col_axis: self.col_values(),
            "n_caches": self.sizes,
            "rep": tuple(range(self.replications)),
        }

    def fixed_config(self) -> Optional[Dict[str, Any]]:
        """Constant config entries merged into every point (or ``None``)."""
        if self.is_fault_grid:
            return {"workload": self.workloads[0]}
        return None

    def point_count(self) -> int:
        """Total number of points in the dense cross product."""
        total = 1
        for values in self.axes().values():
            total *= len(values)
        return total

    def cell_label(self, protocol: str, col: str, size: int,
                   rep: int) -> Hashable:
        """The sweep-point label of one (cell, replication).

        ``col`` is the column-axis value: a workload name, or a fault
        plan name on a fault grid.
        """
        return (protocol, col, size, rep)


#: The named grids ``python -m repro.report --grid`` accepts.
GRIDS: Dict[str, GridDef] = {
    grid.name: grid
    for grid in (
        GridDef(
            name="table1",
            title="Full Table-1 cross product",
            description=(
                "Every named replication strategy under every workload "
                "profile at every tree size, three independent "
                "replications per cell."
            ),
            protocols=tuple(STRATEGIES),
            workloads=("read-heavy", "balanced", "write-heavy"),
            sizes=(2, 4, 8),
            replications=3,
        ),
        GridDef(
            name="table1-small",
            title="Small Table-1 cross product",
            description=(
                "A 2x2x2 corner of the full grid with two replications "
                "per cell; the golden-test and CI smoke grid."
            ),
            protocols=("push-update", "push-invalidate"),
            workloads=("read-heavy", "write-heavy"),
            sizes=(2, 4),
            replications=2,
        ),
        GridDef(
            name="x11-faults",
            title="Fault grid: strategy x fault plan x tree size",
            description=(
                "Every fault-grid strategy under every registered fault "
                "plan at two tree sizes, balanced workload, two "
                "replications per cell.  Partitions queue reliable "
                "traffic and flush on heal; crashes drop it; plans run "
                "identically on the sim and live transports."
            ),
            protocols=("push-update", "push-invalidate", "pull-periodic"),
            workloads=("balanced",),
            sizes=(2, 4),
            replications=2,
            fault_plans=tuple(FAULT_PLANS),
        ),
        GridDef(
            name="x11-faults-small",
            title="Small fault grid",
            description=(
                "A 2x2x1 corner of the fault grid with two replications "
                "per cell; the fault golden-test and smoke grid."
            ),
            protocols=("push-update", "push-invalidate"),
            workloads=("balanced",),
            sizes=(2,),
            replications=2,
            fault_plans=("none", "partition-heal"),
        ),
    )
}


def validate_metric_keys(keys: Optional[Sequence[str]]) -> None:
    """Raise ``KeyError`` (with the catalog) on unregistered metric keys.

    The one validator both the CLI (before any sweep work) and
    :func:`repro.report.book.book_artifacts` (for non-CLI callers) use,
    so the error message cannot drift between them.
    """
    unknown = [key for key in (keys or []) if key not in METRICS]
    if unknown:
        raise KeyError(
            f"unknown metrics: {', '.join(unknown)}; "
            f"registered: {', '.join(METRICS)}"
        )


def get_grid(name: str) -> GridDef:
    """Look up a registered grid; raise ``KeyError`` with the catalog."""
    try:
        return GRIDS[name]
    except KeyError:
        raise KeyError(
            f"unknown grid {name!r}; registered: {', '.join(sorted(GRIDS))}"
        ) from None


def grid_spec(grid: GridDef) -> SweepSpec:
    """Expand a grid into its dense-cross-product :class:`SweepSpec`.

    Fault grids use :func:`run_fault_grid_point` and carry their fixed
    workload as constant config (part of every point's config hash, so
    the fault axis seeds stably without widening the labels).
    """
    spec = SweepSpec(
        name=f"report-{grid.name}",
        run_point=(
            run_fault_grid_point if grid.is_fault_grid else run_grid_point
        ),
        base_seed=grid.base_seed,
    )
    spec.add_grid(_fixed=grid.fixed_config(), **grid.axes())
    return spec


def run_grid(
    grid: GridDef,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
    cache: Optional[ResultCache] = None,
) -> Mapping[Hashable, Dict[str, float]]:
    """Execute a grid through the cached parallel runner.

    Returns ``{(protocol, workload, size, rep): metric dict}`` in
    declaration order; cached cells are replayed, missing cells computed.
    A prebuilt ``cache`` (:class:`~repro.exec.ResultCache`) takes
    precedence over ``cache_dir``.  The rendered book is bit-identical
    at every ``parallel``.
    """
    return run_sweep(grid_spec(grid), parallel=parallel,
                     cache_dir=cache_dir, cache=cache)
