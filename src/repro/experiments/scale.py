"""Experiment X13: per-client vs cohorted readers at scale.

Drives one read-heavy Fig. 2 scenario with per-client and with cohorted
readers at a configurable population, reporting clients-simulated/sec
and events per configuration plus the weighted-metrics sanity claim:
the cohorted run must account for exactly as many client reads as its
population.  This is the in-tree companion to ``benchmarks/bench_sim.py``
(which adds subprocess RSS isolation and writes ``BENCH_sim.json``).
"""

from __future__ import annotations

import time

from repro.experiments.harness import ExperimentResult
from repro.metrics.staleness import staleness_summary
from repro.replication.policy import ReplicationPolicy
from repro.workload.profiles import WorkloadProfile, run_profile

#: The X13 traffic mix: a few master writes under a large reader fan-out.
SCALE_PROFILE = WorkloadProfile(
    name="scale",
    writes=5,
    reads_per_client=3,
    write_interval=2.0,
    read_think=1.0,
)


def run_scale(
    seed: int = 7,
    n_caches: int = 8,
    readers_per_cache: int = 50,
    cohort_size: int = 50,
) -> ExperimentResult:
    """X13: per-client vs cohort at scale (defaults: 400 clients)."""
    population = n_caches * readers_per_cache
    result = ExperimentResult(
        name="X13: Simulation-core scale -- "
             f"{population} clients, per-client vs cohort",
        headers=["configuration", "processes", "events", "seconds",
                 "clients/sec", "weighted reads"],
    )
    expected_reads = population * SCALE_PROFILE.reads_per_client
    rates, weighted_reads = {}, []
    for label, cohort in (("per-client", 1), ("cohort", cohort_size)):
        started = time.perf_counter()
        deployment = run_profile(
            ReplicationPolicy.conference_example(),
            SCALE_PROFILE,
            n_caches=n_caches,
            seed=seed,
            n_readers_per_cache=readers_per_cache,
            cohort_size=cohort,
        )
        elapsed = time.perf_counter() - started
        reads = staleness_summary(deployment.site.trace).reads
        rates[label] = population / elapsed
        weighted_reads.append(reads)
        result.add_row(
            label,
            1 + (len(deployment.cohorts) or population),
            deployment.sim.events_fired,
            round(elapsed, 3),
            round(rates[label], 1),
            reads,
        )
    speedup = round(rates["cohort"] / rates["per-client"], 2)
    result.note(
        f"cohort vs per-client: {speedup}x clients/sec; the committed "
        f"BENCH_sim.json tracks the 10^4-client version of this pair."
    )
    result.claim(
        f"both configurations account for all {expected_reads} weighted "
        "client reads",
        weighted_reads == [expected_reads] * 2,
    )
    return result
