"""The scripted fault-parity scenario: one plan, three substrates (X12).

:func:`fault_smoke_point` drives the acceptance scenario of the fault
layer -- partition a cache subtree, heal it, crash a cache, restart it --
over a short scripted workload on any backend (``"sim"``, ``"live"``, or
``"live-socket"``, where CrashNode SIGKILLs the store's OS process and
RestartNode re-spawns it from its snapshot + journal), through the same
runner/cache as every other sweep.  The plan is applied with the
injector's *stepped* mode at convergence barriers, so faults interleave
with the workload identically in virtual and wall-clock time and the
time-free coherence signature is comparable across backends: the golden
parity test and experiment X12 assert they are equal.

The script deliberately walks the interesting paths:

- a write behind the partition queues (reliable transport) and flushes
  on heal -- recovery is observed, not assumed;
- a read into the partitioned cache is served *stale* (staleness under
  partition);
- a read into the crashed cache is dropped and times out (an
  unavailable read);
- after restart, the master's read-your-writes read through the
  restarted cache forces the demand/state-transfer catch-up path.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Sequence

from repro.coherence.trace import coherence_signature
from repro.exec.runner import run_sweep
from repro.exec.spec import SweepSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashNode, FaultPlan, Heal, Partition, RestartNode
from repro.replication.policy import ReplicationPolicy
from repro.transport.backend import BackendError
from repro.workload.scenarios import build_tree

#: Per-operation driving timeout for the scripted run (wall or virtual s).
SMOKE_TIMEOUT = 10.0

#: How long to wait on a read into a crashed store before declaring it
#: unavailable (wall seconds on the live backend, so kept short).
UNAVAILABLE_TIMEOUT = 0.5


def parity_plan(stores: Sequence[str]) -> FaultPlan:
    """The acceptance plan: partition 2 s, heal, one crash/restart.

    Event times are nominal -- the scripted scenario applies events at
    convergence barriers via :meth:`FaultInjector.step`, where only the
    order matters.
    """
    isolated = (stores[-1],)
    rest = tuple(n for n in stores if n not in isolated)
    crashed = stores[1]
    return FaultPlan(events=(
        Partition(at=2.0, side_a=isolated, side_b=rest),
        Heal(at=4.0, side_a=isolated, side_b=rest),
        CrashNode(at=5.0, node=crashed),
        RestartNode(at=7.0, node=crashed),
    ))


def fault_smoke_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One scripted fault run on ``config["backend"]``.

    The derived sweep seed is ignored in favour of ``config["seed"]`` so
    the identical scenario seed is pinned across the backend variants of
    one sweep (the parity comparison).  Returns plain data: convergence
    flags, the fault observations, final versions, network fault
    counters and the time-free coherence signature.
    """
    del seed
    backend = config.get("backend", "live")
    deployment = build_tree(
        policy=ReplicationPolicy(),
        n_caches=2,
        n_readers_per_cache=1,
        pages={"index.html": "<h1>rev 0</h1>"},
        seed=int(config.get("seed", 0)),
        backend=backend,
    )
    try:
        stores = [store.address for store in deployment.site.stores()]
        injector = FaultInjector(
            deployment.sim, deployment.network, parity_plan(stores)
        )
        isolated = stores[-1]    # behind the partition (cache-1)
        crashed = stores[1]      # crashed later (cache-0)
        master = deployment.browsers["master"]
        outcome: Dict[str, Any] = {"backend": backend}

        def write(revision: int) -> None:
            """Master writes one revision and waits for the ack."""
            future = deployment.call(
                master.write_page, "index.html", f"<h1>rev {revision}</h1>"
            )
            deployment.wait(future, timeout=SMOKE_TIMEOUT)

        def converged(revision: int, skip: Sequence[str] = ()) -> bool:
            """Wait until every store (minus ``skip``) holds ``revision``."""
            engines = [
                store.engine
                for store in deployment.site.stores()
                if store.address not in skip
            ]
            return deployment.wait_until(
                lambda: all(
                    engine.version().get("master", 0) == revision
                    for engine in engines
                ),
                timeout=SMOKE_TIMEOUT,
            )

        def read(browser_name: str,
                 timeout: float = SMOKE_TIMEOUT) -> Optional[str]:
            """Read the page via one browser; ``None`` when unavailable."""
            browser = deployment.browsers[browser_name]
            future = deployment.call(browser.read_page, "index.html")
            try:
                page = deployment.wait(future, timeout=timeout)
            except BackendError:
                return None
            return page["content"]

        reader_behind_cut = f"reader-{stores.index(isolated) - 1}-0"
        reader_at_crash = f"reader-{stores.index(crashed) - 1}-0"

        write(1)
        outcome["converged_initial"] = converged(1)
        # Warm both caches: the first read demand-fills a client-
        # initiated store, so later fault-phase reads exercise stale
        # cached state instead of blocking on a cold-miss fetch.
        outcome["warm_reads_ok"] = all(
            read(name) == "<h1>rev 1</h1>"
            for name in (reader_at_crash, reader_behind_cut)
        )
        deployment.call(injector.step)          # partition: isolated | rest
        write(2)
        outcome["converged_during_partition"] = converged(
            2, skip=(isolated,)
        )
        # Staleness under partition: the cut cache still serves rev 1.
        outcome["stale_read_under_partition"] = (
            read(reader_behind_cut) == "<h1>rev 1</h1>"
        )
        deployment.call(injector.step)          # heal: queued push flushes
        outcome["recovered_after_heal"] = converged(2)
        deployment.call(injector.step)          # crash cache-0
        write(3)
        outcome["converged_during_crash"] = converged(3, skip=(crashed,))
        # Unavailability: a read into the crashed store never resolves.
        outcome["unavailable_reads"] = (
            1 if read(reader_at_crash, timeout=UNAVAILABLE_TIMEOUT) is None
            else 0
        )
        deployment.call(injector.step)          # restart cache-0
        # The master reads through the restarted cache with RYW: the
        # session requirement forces the demand/state-transfer catch-up.
        outcome["demand_refresh_ok"] = (
            read("master") == "<h1>rev 3</h1>"
        )
        outcome["recovered_after_restart"] = converged(3)
        outcome["versions"] = {
            address: store.version()
            for address, store in deployment.site.dso.stores.items()
        }
        stats = deployment.network.stats
        outcome["dropped_partition"] = stats.datagrams_dropped_partition
        outcome["dropped_crashed"] = stats.datagrams_dropped_crashed
        outcome["signature"] = coherence_signature(deployment.site.trace)
        return outcome
    finally:
        deployment.shutdown()


def fault_soak_spec(
    backends: Sequence[str] = ("sim", "live"), seed: int = 0
) -> SweepSpec:
    """A sweep running the identical fault scenario on each backend."""
    spec = SweepSpec(name="fault-soak", run_point=fault_smoke_point,
                     base_seed=seed)
    for backend in backends:
        spec.add(backend, backend=backend, seed=seed)
    return spec


def run_fault_soak(
    backends: Sequence[str] = ("sim", "live"),
    seed: int = 0,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[Hashable, Any]:
    """Execute the fault soak sweep through the runner/cache."""
    return run_sweep(
        fault_soak_spec(backends=backends, seed=seed),
        parallel=parallel,
        cache_dir=cache_dir,
    )
