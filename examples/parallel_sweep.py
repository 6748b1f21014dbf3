#!/usr/bin/env python3
"""Parallel sweep execution with ``repro.exec``: declare points, fan out.

A sweep is a list of independent, seeded simulation runs -- one per
parameter setting -- which makes it embarrassingly parallel.  This
example declares a small custom sweep (how does the lazy aggregation
window trade coherence traffic for staleness as the cache tree grows?),
then runs it three ways:

1. serially in-process (``parallel=1``);
2. fanned out to forked workers served by the sweep hub
   (``parallel=0``, one worker per CPU);
3. again with the on-disk result cache, so the re-run is near-instant.

Every point's simulation seed derives from a stable hash of its config
(`repro.exec.derive_seed`), so all three give bit-identical results.

Run:  python examples/parallel_sweep.py

The stock paper experiments expose the same knobs on the command line::

    python -m repro.experiments x1 x2 --parallel 0 --cache-dir .sweep-cache
"""

import tempfile
import time

from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import measure
from repro.metrics.tables import render_table
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
    TransferInstant,
)
from repro.sim.process import Process
from repro.workload.generator import ReaderWorkload, WriterWorkload
from repro.workload.scenarios import build_tree

PAGES = {f"page-{i}.html": "x" * 512 for i in range(4)}


def lazy_window_point(config, seed):
    """One sweep point: must be module-level (workers import it) and pure
    (everything it needs arrives via ``config`` and ``seed``)."""
    policy = ReplicationPolicy(
        transfer_instant=TransferInstant.LAZY,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        lazy_interval=config["window"],
    )
    deployment = build_tree(
        policy=policy, n_caches=config["n_caches"],
        n_readers_per_cache=1, pages=dict(PAGES), seed=seed,
    )
    sim = deployment.sim
    rng = sim.rng.fork("workload")
    writer = WriterWorkload(
        deployment.browsers["master"], pages=list(PAGES),
        rng=rng.fork("writer"), interval=0.5, operations=20,
        payload_bytes=512,
    )
    readers = [
        ReaderWorkload(browser, pages=list(PAGES), rng=rng.fork(name),
                       mean_think=0.5, operations=8)
        for name, browser in deployment.browsers.items()
        if name != "master"
    ]
    for index, workload in enumerate([writer] + readers):
        Process(sim, workload.run(), name=f"wl-{index}")
    sim.run_until_idle()
    sim.run(until=sim.now + 2 * policy.lazy_interval)
    metrics = measure(deployment)
    return {
        "coherence_msgs": metrics.traffic.coherence_messages,
        "stale_fraction": metrics.stale_fraction,
    }


def build_spec() -> SweepSpec:
    spec = SweepSpec(name="lazy-window-by-tree-size",
                     run_point=lazy_window_point)
    for window in (1.0, 4.0, 16.0):
        for n_caches in (2, 8):
            spec.add((window, n_caches), window=window, n_caches=n_caches)
    return spec


def main() -> None:
    started = time.perf_counter()
    serial = run_sweep(build_spec(), parallel=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_sweep(build_spec(), parallel=0)
    parallel_s = time.perf_counter() - started
    assert parallel == serial, "parallel execution must be bit-identical"

    with tempfile.TemporaryDirectory() as cache_dir:
        run_sweep(build_spec(), parallel=0, cache_dir=cache_dir)
        started = time.perf_counter()
        cached = run_sweep(build_spec(), parallel=1, cache_dir=cache_dir)
        cached_s = time.perf_counter() - started
    assert cached == serial, "cached results must be bit-identical"

    rows = [
        [f"{window:g}", n_caches, point["coherence_msgs"],
         f"{point['stale_fraction']:.3f}"]
        for (window, n_caches), point in serial.items()
    ]
    print(render_table(
        ["lazy window (s)", "caches", "coherence msgs", "stale fraction"],
        rows, title="Lazy aggregation window x cache-tree size",
    ))
    print()
    print(f"serial       {serial_s * 1000:7.1f} ms")
    print(f"parallel     {parallel_s * 1000:7.1f} ms  (identical results)")
    print(f"cached       {cached_s * 1000:7.1f} ms  (identical results)")


if __name__ == "__main__":
    main()
