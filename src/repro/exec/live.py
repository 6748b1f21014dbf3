"""Live-backend sweep adapter: wall-clock smoke runs through the runner.

A :class:`~repro.exec.spec.SweepSpec` whose point function is
:func:`live_smoke_point` drives short *real-time* multi-node deployments
through the exact same runner and on-disk cache as the simulated sweeps:
each point assembles the Fig. 2 tree on the requested backend
(``"live"`` wall-clock threads, ``"live-socket"`` one OS process per
store, or ``"sim"`` for the paired control run), executes a synchronous
scripted workload -- write, wait for convergence, read everywhere -- and
returns a plain-data summary including the time-free
:func:`~repro.coherence.trace.coherence_signature`.

Because the script is synchronous and convergence-gated, the signature is
deterministic even in wall-clock time; comparing it across the sim and
live points of one sweep is exactly the parity claim the golden test
asserts.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Sequence

from repro.coherence.trace import coherence_signature
from repro.exec.runner import run_sweep
from repro.exec.spec import SweepSpec
from repro.replication.policy import ReplicationPolicy
from repro.workload.scenarios import build_tree

#: Per-operation driving timeout for the smoke script (wall or virtual s).
SMOKE_TIMEOUT = 10.0


def live_smoke_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One smoke point: a short scripted run on ``config["backend"]``.

    The derived sweep seed is ignored in favour of ``config["seed"]`` so
    the identical scenario seed can be pinned across backend variants of
    one sweep (that is the parity comparison).
    """
    del seed
    backend = config.get("backend", "live")
    writes = int(config.get("writes", 3))
    n_caches = int(config.get("n_caches", 2))
    pages = {"index.html": "<h1>smoke</h1>"}
    deployment = build_tree(
        policy=ReplicationPolicy(),
        n_caches=n_caches,
        n_readers_per_cache=1,
        pages=dict(pages),
        seed=int(config.get("seed", 0)),
        backend=backend,
    )
    try:
        master = deployment.browsers["master"]
        converged_each_round = True
        for index in range(writes):
            future = deployment.call(
                master.write_page, "index.html", f"<h1>rev {index + 1}</h1>"
            )
            deployment.wait(future, timeout=SMOKE_TIMEOUT)
            expected = index + 1
            converged_each_round &= deployment.wait_until(
                lambda: all(
                    engine.version().get("master", 0) == expected
                    for engine in deployment.engines
                ),
                timeout=SMOKE_TIMEOUT,
            )
        reads_ok = 0
        for name, browser in sorted(deployment.browsers.items()):
            if name == "master":
                continue
            future = deployment.call(browser.read_page, "index.html")
            page = deployment.wait(future, timeout=SMOKE_TIMEOUT)
            if page["content"] == f"<h1>rev {writes}</h1>":
                reads_ok += 1
        versions = {
            store_address: store.version()
            for store_address, store in deployment.site.dso.stores.items()
        }
        return {
            "backend": backend,
            "writes": writes,
            "versions": versions,
            "converged": converged_each_round,
            "reads_ok": reads_ok,
            "signature": coherence_signature(deployment.site.trace),
            "datagrams_delivered": (
                deployment.network.stats.datagrams_delivered
            ),
        }
    finally:
        deployment.shutdown()


def smoke_spec(
    backends: Sequence[str] = ("sim", "live"),
    writes: int = 3,
    n_caches: int = 2,
    seed: int = 0,
) -> SweepSpec:
    """A sweep running the identical smoke scenario on each backend."""
    spec = SweepSpec(name="backend-smoke", run_point=live_smoke_point,
                     base_seed=seed)
    for backend in backends:
        spec.add(backend, backend=backend, writes=writes,
                 n_caches=n_caches, seed=seed)
    return spec


def run_live_smoke(
    backends: Sequence[str] = ("sim", "live"),
    writes: int = 3,
    n_caches: int = 2,
    seed: int = 0,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[Hashable, Any]:
    """Execute the backend smoke sweep through the runner/cache.

    Live points run wall-clock threads *inside* whichever worker
    evaluates them, so ``parallel`` is orthogonal to the backend choice.
    """
    return run_sweep(
        smoke_spec(backends=backends, writes=writes, n_caches=n_caches,
                   seed=seed),
        parallel=parallel,
        cache_dir=cache_dir,
    )
