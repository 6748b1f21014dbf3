"""Simulation-core benchmark: clients/sec, per-client vs cohorted readers.

Drives one fixed read-heavy scenario (the Fig. 2 tree under the
conference-example policy) at a configurable client population with
per-client and with cohorted readers, and emits ``BENCH_sim.json``::

    python benchmarks/bench_sim.py                   # 10^4 clients
    python benchmarks/bench_sim.py --caches 4 --readers 100 --cohort 50
    python benchmarks/bench_sim.py --out BENCH_sim.json

Per configuration the report records wall-clock clients-simulated/sec
(population / end-to-end seconds, build included -- binding 10^4 browsers
is real cost that cohorts remove), kernel events/sec, and the process
peak RSS.  Every configuration runs in its own subprocess so
``ru_maxrss`` is that configuration's high-water mark, not the pair's.

Not a pytest module: run it directly (CI treats the perf trajectory as
data, not as a gate).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.replication.policy import ReplicationPolicy  # noqa: E402
from repro.workload.profiles import WorkloadProfile, run_profile  # noqa: E402

#: The benchmark traffic mix: a handful of master writes under a large
#: reader population, each reader thinking ~1s between reads.
BENCH_PROFILE = WorkloadProfile(
    name="bench-sim",
    writes=5,
    reads_per_client=3,
    write_interval=2.0,
    read_think=1.0,
)


def run_scenario(
    cohort_size: int,
    n_caches: int,
    readers_per_cache: int,
    seed: int,
) -> Dict[str, Any]:
    """One full build+drive of the benchmark scenario; its raw numbers."""
    population = n_caches * readers_per_cache
    started = time.perf_counter()
    deployment = run_profile(
        ReplicationPolicy.conference_example(),
        BENCH_PROFILE,
        n_caches=n_caches,
        seed=seed,
        n_readers_per_cache=readers_per_cache,
        cohort_size=cohort_size,
    )
    elapsed = time.perf_counter() - started
    events = deployment.sim.events_fired
    return {
        "cohort_size": cohort_size,
        "clients": population,
        "processes": 1 + (
            len(deployment.cohorts) if deployment.cohorts else population
        ),
        "seconds": round(elapsed, 4),
        "events_fired": events,
        "clients_per_sec": round(population / elapsed, 1),
        "events_per_sec": round(events / elapsed, 1),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_scenario_isolated(args: argparse.Namespace,
                          cohort: int) -> Dict[str, Any]:
    """Run one configuration in a fresh subprocess; best of ``repeats``.

    Isolation keeps ``ru_maxrss`` per-configuration and each timing free
    of allocator/cache state left behind by the previous configuration.
    """
    best: Dict[str, Any] = {}
    for _ in range(args.repeats):
        payload = json.dumps({
            "cohort_size": cohort,
            "n_caches": args.caches,
            "readers_per_cache": args.readers,
            "seed": args.seed,
        })
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single", payload],
            capture_output=True, text=True, check=True, env=env,
        )
        entry = json.loads(out.stdout)
        if not best or entry["seconds"] < best["seconds"]:
            best = entry
    return best


def main(argv) -> int:
    """Run both configurations and write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_sim.py",
        description="Benchmark the simulation core with per-client and "
                    "cohorted readers.",
    )
    parser.add_argument("--caches", type=int, default=20,
                        help="client-initiated stores (default 20)")
    parser.add_argument("--readers", type=int, default=500,
                        help="readers per cache (default 500; 20x500 = "
                             "the 10^4-client reference population)")
    parser.add_argument("--cohort", type=int, default=100,
                        help="cohort size for the cohorted configurations "
                             "(default 100)")
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario seed (default 7)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per configuration; best counts "
                             "(default 2)")
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="report path (default BENCH_sim.json)")
    parser.add_argument("--single", metavar="JSON", default=None,
                        help=argparse.SUPPRESS)  # internal: one subprocess run
    args = parser.parse_args(argv)

    if args.single is not None:
        spec = json.loads(args.single)
        json.dump(run_scenario(**spec), sys.stdout)
        return 0

    population = args.caches * args.readers
    report: Dict[str, Any] = {
        "benchmark": "Fig. 2 tree, read-heavy traffic, per-client vs cohort",
        "cpu_count": os.cpu_count(),
        "population": population,
        "cohort_size": args.cohort,
        "configurations": {},
    }
    for label, cohort in (("per-client", 1), ("cohort", args.cohort)):
        entry = run_scenario_isolated(args, cohort)
        report["configurations"][label] = entry
        print(f"{label:>12}: {entry['clients_per_sec']:>12,.0f} clients/sec  "
              f"{entry['events_per_sec']:>12,.0f} events/sec  "
              f"rss {entry['peak_rss_kb']:>8,} KB")

    configurations = report["configurations"]
    report["cohort_vs_per_client"] = round(
        configurations["cohort"]["clients_per_sec"]
        / configurations["per-client"]["clients_per_sec"], 2
    )
    print(f"cohort vs per-client: {report['cohort_vs_per_client']}x")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
