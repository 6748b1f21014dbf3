"""Command-line driver for the results book.

``python -m repro.report --grid table1`` runs (or replays from cache)
the named grid and regenerates ``RESULTS.md`` plus one SVG heat map per
metric under ``--out``; ``--check`` renders in memory and fails when the
on-disk artifacts differ (the CI staleness gate); ``--list`` catalogs
the registered grids and metrics.  The execution flags (``--parallel``,
``--cache-dir``, ``--cache-clear``) are the same ones
``python -m repro.experiments`` takes, backed by the same runner and
cache; the book renders bit-identically at every ``--parallel``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.exec import (
    ResultCache,
    add_exec_arguments,
    apply_cache_maintenance,
    cached_point_labels,
)
from repro.report.book import (
    HEATMAP_DIR,
    book_artifacts,
    check_book,
    write_book,
)
from repro.report.grid import (
    GRIDS,
    METRICS,
    get_grid,
    grid_spec,
    run_grid,
    validate_metric_keys,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.report`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Render cached cross-product sweeps into the results "
                    "book (RESULTS.md + per-metric heat maps).",
    )
    parser.add_argument(
        "--grid", default="table1", metavar="NAME",
        help=f"grid to render (default table1; one of: {', '.join(GRIDS)})",
    )
    parser.add_argument(
        "--metric", action="append", default=None, metavar="KEY",
        help="restrict the book to one metric (repeatable; default: "
             f"all of {', '.join(METRICS)})",
    )
    parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory RESULTS.md and results/heatmaps/ are written "
             "under (default: current directory)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="render in memory and fail (exit 1) when the artifacts "
             "under --out are missing or stale instead of writing them",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="append the run-health appendix (per-point timing from the "
             "cache's manifest.jsonl; requires --cache-dir)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_grids",
        help="list registered grids and metrics, then exit",
    )
    add_exec_arguments(parser)
    return parser


def _print_catalog() -> None:
    """Print the grid and metric registries."""
    print("grids:")
    for name, grid in GRIDS.items():
        print(f"  {name}: {grid.title} -- {grid.point_count()} points")
    print("metrics:")
    for key, metric in METRICS.items():
        print(f"  {key}: {metric.title} ({metric.unit})")


def main(argv: List[str]) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_grids:
        _print_catalog()
        return 0
    try:
        grid = get_grid(args.grid)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    # Validate the metric selection before any sweep work: a typo must
    # fail instantly, not after the grid has executed.
    try:
        validate_metric_keys(args.metric)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.check and args.metric:
        # The committed book always holds every metric, so a subset
        # render can never match it; the combination is a user error.
        print("--check compares the full book; it cannot be combined "
              "with --metric", file=sys.stderr)
        return 2
    if args.health and args.check:
        # The health appendix carries machine-dependent timings; a book
        # containing it can never byte-match the committed one.
        print("--check compares the committed book, which never "
              "contains the run-health appendix; drop --health",
              file=sys.stderr)
        return 2
    if args.health and args.cache_dir is None:
        print("--health reads manifest.jsonl from the cache; pass "
              "--cache-dir", file=sys.stderr)
        return 2
    maintenance = apply_cache_maintenance(args)
    if maintenance:
        print(maintenance)
    cache = None
    if args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)
        spec = grid_spec(grid)
        warm = len(cached_point_labels(spec, cache))
        print(f"grid {grid.name}: {warm}/{len(spec.points)} points cached")
    results = run_grid(grid, parallel=args.parallel, cache=cache)
    health = None
    if args.health:
        from repro.obs import MANIFEST_NAME, load_manifest, summarize_manifest

        spec_name = grid_spec(grid).name
        manifest_path = Path(args.cache_dir) / MANIFEST_NAME
        try:
            records = load_manifest(manifest_path)
        except OSError as exc:
            print(f"cannot read manifest {manifest_path}: {exc}",
                  file=sys.stderr)
            return 2
        health = summarize_manifest(
            records, spec=spec_name
        )["specs"].get(spec_name)
        if health is None:
            print(f"manifest has no records for sweep {spec_name!r}",
                  file=sys.stderr)
            return 2
    artifacts = book_artifacts(grid, results, metrics=args.metric,
                               health=health)
    out_dir = Path(args.out)
    if args.check:
        stale = check_book(
            artifacts, out_dir,
            orphan_globs=[f"{HEATMAP_DIR}/{grid.name}/*.svg"],
        )
        if stale:
            print("stale generated docs (re-run python -m repro.report):")
            for entry in stale:
                print(f"  {entry}")
            return 1
        print(f"results book up to date ({len(artifacts)} artifacts)")
        return 0
    for path in write_book(artifacts, out_dir):
        print(f"wrote {path}")
    return 0
