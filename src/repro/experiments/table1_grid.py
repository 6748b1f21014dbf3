"""Experiment X10: the Table-1 cross-product grid, summarized.

Where X1, X2 and X6 each sweep *one row* of Table 1, X10 runs the dense
cross product the report layer defines -- every named strategy under
every workload profile at every tree size -- through the cached runner,
then renders the per-strategy summary at the largest tree.  The full
per-metric tables and heat maps are the results book's job
(``python -m repro.report``); this experiment is the grid's presence in
the standard ``python -m repro.experiments`` catalog, sharing its cache
entries with the book.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import ExperimentResult
from repro.report.aggregate import aggregate
from repro.report.grid import get_grid, run_grid


def run_table1_grid(
    grid: str = "table1-small",
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X10: run one named report grid and summarize it per strategy.

    The summary shows each (strategy, workload) cell at the grid's
    largest tree size; cache entries are shared with
    ``python -m repro.report --grid``, so whichever runs first warms the
    other.
    """
    grid_def = get_grid(grid)
    results = run_grid(grid_def, parallel=parallel, cache_dir=cache_dir)
    tables = aggregate(grid_def, results)
    largest = max(grid_def.sizes)
    result = ExperimentResult(
        name=(
            f"X10: Table-1 cross-product grid ({grid_def.name}, "
            f"{grid_def.point_count()} points; at {largest} caches)"
        ),
        headers=[
            "strategy", "workload", "wire KB", "coherence msgs",
            "stale fraction", "mean read latency (s)",
        ],
    )
    for protocol in grid_def.protocols:
        for workload in grid_def.workloads:
            col = (workload, largest)
            result.add_row(
                protocol,
                workload,
                f"{tables['wire_kb'].cell(protocol, col).mean:.1f}",
                f"{tables['coherence_messages'].cell(protocol, col).mean:.0f}",
                f"{tables['stale_fraction'].cell(protocol, col).mean:.3f}",
                f"{tables['mean_read_latency'].cell(protocol, col).mean:.4f}",
            )
    result.data["grid"] = grid_def.name
    result.data["measured"] = results
    result.data["tables"] = tables
    smallest = min(grid_def.sizes)

    def cell(metric: str, protocol: str, workload: str,
             size: int = largest) -> float:
        return tables[metric].cell(protocol, (workload, size)).mean

    result.claim(
        f"write-heavy, {largest} caches: push-invalidate ships less than "
        "push-update",
        cell("wire_kb", "push-invalidate", "write-heavy")
        < cell("wire_kb", "push-update", "write-heavy"),
    )
    result.claim(f"read-heavy, {largest} caches: push-invalidate serves "
                 "stale reads",
                 cell("stale_fraction", "push-invalidate", "read-heavy") > 0)
    result.claim(f"read-heavy, {largest} caches: push-update serves no "
                 "stale read",
                 cell("stale_fraction", "push-update", "read-heavy") == 0)
    result.claim(
        f"push-update's read-heavy wire traffic grows from {smallest} to "
        f"{largest} caches",
        cell("wire_kb", "push-update", "read-heavy")
        > cell("wire_kb", "push-update", "read-heavy", smallest),
    )
    result.note(
        "Means over the grid's replications.  The rendered results book "
        "(RESULTS.md, one heat map per metric) is regenerated by "
        f"`python -m repro.report --grid {grid_def.name}`."
    )
    return result
