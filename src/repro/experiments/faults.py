"""Experiments X11 and X12: fault scenarios as a first-class axis.

X11 runs a fault grid (strategy x fault plan x tree size) through the
cached runner and summarizes the partition-aware metrics; the full
per-metric tables and heat maps are rendered by
``python -m repro.report --grid x11-faults``, sharing cache entries.

X12 is the live-backend fault soak smoke: the scripted
partition/heal/crash/restart scenario of :mod:`repro.faults.scenario`
executed on all three substrates (sim, live threads, live sockets --
where the crash is a real SIGKILL), comparing time-free coherence
signatures -- the fault-layer analog of X9's portability claim.  The CI
job wraps it in a wall-clock timeout so a hung heal fails fast.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import ExperimentResult
from repro.faults.scenario import run_fault_soak as execute_fault_soak
from repro.report.aggregate import aggregate
from repro.report.grid import get_grid, run_grid


def run_fault_grid(
    grid: str = "x11-faults",
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X11: run a fault grid and summarize it per (strategy, fault plan).

    The summary shows each cell at the grid's largest tree size; cache
    entries are shared with ``python -m repro.report --grid``.
    """
    grid_def = get_grid(grid)
    if not grid_def.is_fault_grid:
        raise ValueError(f"{grid!r} is not a fault grid")
    results = run_grid(grid_def, parallel=parallel, cache_dir=cache_dir)
    tables = aggregate(grid_def, results)
    largest = max(grid_def.sizes)
    result = ExperimentResult(
        name=(
            f"X11: Fault grid ({grid_def.name}, "
            f"{grid_def.point_count()} points; at {largest} caches)"
        ),
        headers=[
            "strategy", "fault plan", "unavailable", "stale under part (s)",
            "recovery lag (s)", "stale fraction",
        ],
    )
    for protocol in grid_def.protocols:
        for plan in grid_def.fault_plans:
            col = (plan, largest)
            result.add_row(
                protocol,
                plan,
                f"{tables['unavailable_fraction'].cell(protocol, col).mean:.3f}",
                f"{tables['partition_stale_lag'].cell(protocol, col).mean:.3f}",
                f"{tables['recovery_lag'].cell(protocol, col).mean:.3f}",
                f"{tables['stale_fraction'].cell(protocol, col).mean:.3f}",
            )
    result.data["grid"] = grid_def.name
    result.data["measured"] = results
    result.note(
        "Fault plans are declarative (repro.faults.catalog) and run "
        "identically on the sim and live transports; the workload is "
        f"fixed at {grid_def.workloads[0]!r}.  Full tables: "
        f"python -m repro.report --grid {grid_def.name}."
    )
    return result


def run_fault_soak(
    seed: int = 0,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X12: fault soak smoke -- one fault plan, three substrates, same behaviour.

    Runs the scripted partition/heal/crash/restart scenario on the
    deterministic simulator, on the wall-clock thread runtime, and on
    the multi-process socket runtime (where CrashNode SIGKILLs a real
    node process and RestartNode re-spawns it from its snapshot + journal)
    through the sweep runner, then compares the time-free coherence
    signatures.
    """
    measured = execute_fault_soak(
        backends=("sim", "live", "live-socket"), seed=seed,
        parallel=parallel, cache_dir=cache_dir,
    )
    result = ExperimentResult(
        name="X12: Fault soak smoke -- the same fault plan in virtual and "
             "wall-clock time",
        headers=["backend", "stale under cut", "unavailable reads",
                 "demand refresh", "recovered", "dropped (crash)",
                 "signature"],
    )
    reference = measured["sim"]["signature"]
    for label, point in measured.items():
        recovered = (
            point["recovered_after_heal"]
            and point["recovered_after_restart"]
        )
        result.add_row(
            label,
            "yes" if point["stale_read_under_partition"] else "NO",
            point["unavailable_reads"],
            "yes" if point["demand_refresh_ok"] else "NO",
            "yes" if recovered else "NO",
            point["dropped_crashed"],
            "= sim" if point["signature"] == reference else "DIVERGED",
        )
    result.data["measured"] = measured
    for key, text in (
        ("stale_read_under_partition",
         "a cut-off cache serves its stale copy during the partition"),
        ("demand_refresh_ok",
         "an RYW read through the restarted cache demand-refreshes it"),
        ("recovered_after_heal", "every store catches up after the heal"),
        ("recovered_after_restart",
         "every store catches up after the restart"),
    ):
        result.claim(f"{text}, on every backend",
                     all(point[key] for point in measured.values()))
    result.claim("every backend's coherence signature equals sim's",
                 all(point["signature"] == reference
                     for point in measured.values()))
    result.note(
        "The plan (partition 2s -> heal, one crash/restart) is applied "
        "at convergence barriers via FaultInjector.step, so both "
        "substrates make identical protocol decisions; the signature "
        "column compares the time-free coherence histories."
    )
    return result
