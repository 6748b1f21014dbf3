"""Regenerate every paper table, figure and experiment in one command.

Usage::

    python -m repro.experiments                     # everything, serial
    python -m repro.experiments t1 f3 x5            # a selection
    python -m repro.experiments --only t1,f3,x5     # the same, flag form
    python -m repro.experiments x1 --parallel 4     # fan sweep points out
    python -m repro.experiments --parallel 0 --cache-dir .sweep-cache
    python -m repro.experiments --cache-dir .sweep-cache --cache-clear

Experiment ids (t1 t2 f1 f2 f3 f4 x1..x13) are catalogued in EXPERIMENTS.md.
Sweep-shaped experiments accept ``--cache-dir`` (on-disk result cache
keyed by config hash + code version; stale code-fingerprint trees are
evicted on startup, ``--cache-clear`` wipes the cache entirely) and
``--parallel`` (worker count: 1 evaluates in this process, more are
forked and served by the sweep hub, 0 means one worker per CPU).
Results are bit-identical at any parallelism.

Each report ends with the experiment's claim verdicts; after printing
every selected report the command exits 1 if any claim failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.exec import (
    add_exec_arguments,
    apply_cache_maintenance,
    exec_kwargs,
    supported_exec_kwargs,
)
from repro.experiments.adaptive import run_adaptive
from repro.experiments.backends import run_backend_smoke
from repro.experiments.conference import run_conference, run_fig4_wid_flow
from repro.experiments.endtoend import run_endtoend
from repro.experiments.faults import run_fault_grid, run_fault_soak
from repro.experiments.figures import run_fig1, run_fig2
from repro.experiments.model_costs import run_model_costs
from repro.experiments.per_object import run_per_object
from repro.experiments.scale import run_scale
from repro.experiments.sessions import run_sessions
from repro.experiments.sweeps import (
    run_initiative_and_transfer,
    run_propagation,
    run_transfer_instant,
)
from repro.experiments.table1_grid import run_table1_grid
from repro.experiments.tables import run_table1, run_table2

RUNNERS: Dict[str, Callable] = {
    "t1": run_table1,
    "t2": run_table2,
    "f1": run_fig1,
    "f2": run_fig2,
    "f3": run_conference,
    "f4": run_fig4_wid_flow,
    "x1": run_transfer_instant,
    "x2": run_propagation,
    "x3": run_per_object,
    "x4": run_model_costs,
    "x5": run_endtoend,
    "x6": run_initiative_and_transfer,
    "x7": run_sessions,
    "x8": run_adaptive,
    "x9": run_backend_smoke,
    "x10": run_table1_grid,
    "x11": run_fault_grid,
    "x12": run_fault_soak,
    "x13": run_scale,
}


def build_parser() -> argparse.ArgumentParser:
    """The command line: experiment ids, ``--only`` and the exec options."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper tables, figures and experiments.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="ID",
        help=f"experiment ids to run (default: all of {', '.join(RUNNERS)})",
    )
    parser.add_argument(
        "--only", default=None, metavar="IDS",
        help="comma-separated experiment ids to run (e.g. --only x5,f2); "
             "combined with any positional ids",
    )
    add_exec_arguments(parser)
    return parser


def main(argv: List[str]) -> int:
    """Run the requested experiments in order.

    Returns 2 on an unknown id, 1 when any claim failed, else 0.
    """
    args = build_parser().parse_args(argv)
    requested = [exp.lower() for exp in args.experiments]
    if args.only:
        requested += [
            exp.strip().lower()
            for exp in args.only.split(",") if exp.strip()
        ]
    requested = list(dict.fromkeys(requested)) or list(RUNNERS)
    unknown = [exp for exp in requested if exp not in RUNNERS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}")
        print(f"available: {', '.join(RUNNERS)}")
        return 2
    maintenance = apply_cache_maintenance(args)
    if maintenance:
        print(maintenance)
    options = exec_kwargs(args)
    failed = False
    for exp_id in requested:
        runner = RUNNERS[exp_id]
        result = runner(**supported_exec_kwargs(runner, options))
        print(result.render())
        print()
        failed |= bool(result.failed_claims())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
