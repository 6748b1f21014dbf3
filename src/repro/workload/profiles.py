"""Grid-parameterized workload profiles: named traffic mixes in one call.

The Table-1 sweeps compare replication strategies *under a workload*, so
the workload axis has to be as declarative as the policy axis.  A
:class:`WorkloadProfile` names one traffic mix (how often the master
writes, how eagerly the readers read); :data:`PROFILES` is the registry
the report grids draw their workload axis from; and :func:`run_profile`
assembles the Fig. 2 tree, drives the profile's writer and readers over
it, and returns the finished :class:`~repro.workload.scenarios.Deployment`
ready for measurement.

Profiles are plain data, so a profile *name* can travel through a sweep
config (and its cache key) while the expansion to writer/reader
parameters stays in exactly one place.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Union

from repro.replication.policy import ReplicationPolicy, TransferInstant
from repro.sim.process import Process
from repro.transport.backend import Backend, BackendError
from repro.workload.generator import ReaderWorkload, WriterWorkload
from repro.workload.scenarios import Deployment, build_tree

#: Wall-clock bound (seconds) on a whole :func:`run_profile` workload on
#: a live backend; single operations are bounded by ``request_timeout``.
LIVE_RUN_TIMEOUT = 120.0


def default_pages() -> Dict[str, str]:
    """A fresh copy of the standard profile document.

    Ten ~1 KiB pages, big enough that partial-vs-full transfer
    differences show up in the byte counts.
    """
    return {f"page-{i}.html": "c" * 1024 for i in range(10)}


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """One named traffic mix over the Fig. 2 tree.

    ``writes``/``write_interval`` shape the master's update stream;
    ``reads_per_client``/``read_think`` shape each reader;
    ``incremental`` selects append-style updates (the conference master)
    over whole-page overwrites; ``payload_bytes`` sizes each update.
    """

    name: str
    writes: int
    reads_per_client: int
    write_interval: float
    read_think: float
    incremental: bool = False
    payload_bytes: int = 1024

    def describe(self) -> str:
        """One-line human summary (used by the results book)."""
        return (
            f"{self.writes} writes every ~{self.write_interval:g}s, "
            f"{self.reads_per_client} reads/client with ~{self.read_think:g}s "
            f"think time"
        )


#: The standard profile axis: the same document under three read/write
#: mixes, spanning the regimes Section 3.3 argues pick different policies.
PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        WorkloadProfile(
            name="read-heavy",
            writes=10, write_interval=1.0,
            reads_per_client=30, read_think=0.2,
        ),
        WorkloadProfile(
            name="balanced",
            writes=20, write_interval=0.5,
            reads_per_client=10, read_think=0.5,
        ),
        WorkloadProfile(
            name="write-heavy",
            writes=40, write_interval=0.25,
            reads_per_client=5, read_think=1.0,
        ),
    )
}


def get_profile(name: str) -> WorkloadProfile:
    """Look up a registered profile; raise ``KeyError`` with the catalog."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload profile {name!r}; "
            f"registered: {', '.join(sorted(PROFILES))}"
        ) from None


def run_profile(
    policy: ReplicationPolicy,
    profile: WorkloadProfile,
    n_caches: int,
    seed: int,
    pages: Optional[Dict[str, str]] = None,
    horizon: Optional[float] = None,
    fault_plan: Optional[str] = None,
    request_timeout: Optional[float] = None,
    request_retries: int = 0,
    n_readers_per_cache: int = 1,
    cohort_size: int = 1,
    backend: Union[str, Backend] = "sim",
) -> Deployment:
    """Drive ``profile`` over a fresh Fig. 2 tree under ``policy``.

    Builds the tree (one reader per cache plus the master), spawns the
    profile's writer and reader processes, runs the simulation to
    completion (or to ``horizon`` when set -- pull-based policies never
    quiesce on their own), drains the final lazy window, and returns the
    finished deployment for measurement.

    ``fault_plan`` names a registered :data:`repro.faults.FAULT_PLANS`
    entry; the plan is expanded against the tree's store addresses with
    an RNG forked from this run's seed (stable config-hash seeding) and
    executed by a timed :class:`~repro.faults.FaultInjector` attached as
    ``deployment.faults``.  ``request_timeout`` / ``request_retries``
    are passed to every browser so client operations survive outages.

    The scale knobs: ``n_readers_per_cache`` multiplies the reader
    population (historical default 1) and ``cohort_size`` > 1 collapses
    each cache's readers into weighted cohort processes.  At the defaults
    the build and its fork order are byte-identical to the historical
    code path, so cached sweep results keep their keys.

    ``backend`` selects the substrate.  On ``"sim"`` (the default)
    everything above holds.  On a wall-clock backend (``"live"`` /
    ``"live-socket"``) the *same* :class:`~repro.sim.process.Process`
    list -- same forked RNG streams, same operation sequences -- runs on
    the backend's dispatcher in real time, and this call waits for all
    of it under one :data:`LIVE_RUN_TIMEOUT` deadline (each operation is
    bounded by ``request_timeout`` as on ``sim``).  ``horizon`` and
    ``fault_plan`` are virtual-time features and raise
    :class:`~repro.transport.backend.BackendError` there (fault plans on
    live backends run through the scenario scripts in
    :mod:`repro.faults.scenario`).  The caller owns live teardown via
    ``deployment.shutdown()``, unless this call raises: a failed live
    run is shut down before the error propagates.
    """
    pages = pages if pages is not None else default_pages()
    backend_name = backend.name if isinstance(backend, Backend) else backend
    if backend_name != "sim":
        # Validate before building: a live build spawns threads (and, on
        # live-socket, real node processes) the caller would then leak.
        if horizon is not None:
            raise BackendError(
                "horizon is a virtual-time feature; live backends run "
                "the workload to completion"
            )
        if fault_plan is not None:
            raise BackendError(
                "timed fault plans are calibrated in virtual time; on "
                "live backends drive faults through repro.faults.scenario"
            )
    deployment = build_tree(
        policy=policy,
        n_caches=n_caches,
        n_readers_per_cache=n_readers_per_cache,
        pages=dict(pages),
        seed=seed,
        request_timeout=request_timeout,
        request_retries=request_retries,
        cohort_size=cohort_size,
        backend=backend,
    )
    sim = deployment.sim
    rng = sim.rng.fork("workload")
    writer = WriterWorkload(
        deployment.browsers["master"],
        pages=list(pages),
        rng=rng.fork("writer"),
        interval=profile.write_interval,
        operations=profile.writes,
        incremental=profile.incremental,
        payload_bytes=profile.payload_bytes,
    )
    workloads: List[object] = [writer]
    for name, browser in list(deployment.browsers.items()):
        if name == "master":
            continue
        workloads.append(
            ReaderWorkload(
                browser,
                pages=list(pages),
                rng=rng.fork(name),
                mean_think=profile.read_think,
                operations=profile.reads_per_client,
                weight=deployment.cohorts.get(name, 1),
                expand=(
                    functools.partial(deployment.expand_cohort, name)
                    if name in deployment.cohorts else None
                ),
            )
        )
    if fault_plan is not None:
        # Forked *after* the workload RNG so fault-free sweeps keep their
        # historical fork order (and therefore their cached results).
        from repro.faults import FaultInjector, build_fault_plan

        plan = build_fault_plan(
            fault_plan,
            nodes=[store.address for store in deployment.site.stores()],
            rng=sim.rng.fork("faults"),
        )
        injector = FaultInjector(sim, deployment.network, plan)
        injector.start()
        deployment.faults = injector
    processes = [
        Process(sim, workload.run(), name=f"wl-{index}")
        for index, workload in enumerate(workloads)
    ]
    if backend_name != "sim":
        try:
            if not deployment.wait_until(
                lambda: all(process.done.done for process in processes),
                timeout=LIVE_RUN_TIMEOUT,
            ):
                raise BackendError(
                    f"workload unfinished after {LIVE_RUN_TIMEOUT}s"
                )
            for process in processes:
                process.done.result()  # the first workload error, if any
            deployment.settle()
            if policy.transfer_instant is TransferInstant.LAZY:
                # Drain the final lazy window in real time, as the sim
                # path drains it in virtual time.
                deployment.run_for(2 * policy.lazy_interval)
                deployment.settle()
        except BaseException:
            deployment.shutdown()
            raise
        return deployment
    sim.run(until=horizon, max_events=10_000_000)
    if horizon is None:
        sim.run_until_idle()
        # Drain the final lazy window, if any.
        sim.run(until=sim.now + 2 * policy.lazy_interval)
    return deployment

