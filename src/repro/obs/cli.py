"""Command-line surface of the observability layer.

``python -m repro.obs summary --cache-dir .sweep-cache`` renders
per-spec run-health statistics from the run manifest the cached sweeps
append to (``--check`` additionally validates its well-formedness and
fails on malformed records); ``slow --top N`` lists the slowest
computed points; ``trace FILE`` pretty-prints a JSONL trace (one per
sweep point under ``REPRO_TRACE=<dir>``, written by
:func:`repro.obs.tracer.env_trace_write`), with ``--kind`` / ``--node``
/ ``--object`` filters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.manifest import (
    MANIFEST_NAME,
    load_manifest,
    summarize_manifest,
    validate_manifest,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect run manifests and event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="per-spec timing / cache-hit / failure statistics"
    )
    _add_manifest_arguments(summary)
    summary.add_argument(
        "--check", action="store_true",
        help="also validate manifest well-formedness; exit 1 on errors",
    )

    slow = sub.add_parser(
        "slow", help="slowest computed points across the manifest"
    )
    _add_manifest_arguments(slow)
    slow.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many points to list (default 10)",
    )

    trace = sub.add_parser(
        "trace", help="pretty-print (and filter) a JSONL event trace"
    )
    trace.add_argument("path", help="trace file (JSONL, one event per line)")
    trace.add_argument(
        "--kind", default=None,
        help="only events whose kind starts with this prefix "
             "(e.g. net, repl.write)",
    )
    trace.add_argument("--node", default=None,
                       help="only events at this node")
    trace.add_argument("--object", default=None, dest="obj",
                       help="only events about this object key")
    trace.add_argument("--limit", type=int, default=0, metavar="N",
                       help="stop after N matching events (default: all)")
    return parser


def _add_manifest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result-cache directory holding {MANIFEST_NAME}",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="explicit manifest path (overrides --cache-dir)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="NAME",
        help="restrict to one sweep spec name",
    )


def _manifest_path(args: argparse.Namespace) -> Optional[Path]:
    if args.manifest is not None:
        return Path(args.manifest)
    if args.cache_dir is not None:
        return Path(args.cache_dir) / MANIFEST_NAME
    return None


def _load(args: argparse.Namespace) -> Optional[List[Dict[str, Any]]]:
    path = _manifest_path(args)
    if path is None:
        print("pass --cache-dir DIR or --manifest PATH", file=sys.stderr)
        return None
    try:
        return load_manifest(path)
    except OSError as exc:
        print(f"cannot read manifest {path}: {exc}", file=sys.stderr)
        return None


def _print_summary(summary: Dict[str, Any]) -> None:
    if not summary["specs"]:
        print("no point records in manifest")
        return
    for name in sorted(summary["specs"]):
        stats = summary["specs"][name]
        print(f"sweep {name}: {stats['points']} points "
              f"({stats['hits']} cached, {stats['computed']} computed, "
              f"{stats['failed']} failed)")
        print(f"  wall: total {stats['wall_total_s']:.3f}s  "
              f"mean {stats['wall_mean_s']:.3f}s  "
              f"max {stats['wall_max_s']:.3f}s")
        print(f"  peak rss: {stats['peak_rss_kb']} KB  "
              f"events traced: {stats['events']}")
        executors = ", ".join(
            f"{executor}({count})"
            for executor, count in sorted(stats["executors"].items())
        )
        print(f"  executors: {executors}")
        if stats.get("workers"):
            # Distributed sweeps: per-daemon point counts and retries.
            workers = ", ".join(
                f"{name}({entry['points']} points, "
                f"{entry['retries']} retries)"
                for name, entry in sorted(stats["workers"].items())
            )
            print(f"  workers: {workers}")
        if stats.get("retries"):
            print(f"  retries: {stats['retries']} task re-dispatches "
                  "after worker loss")
        if stats["slowest"]:
            print("  slowest computed points:")
            for label, wall in stats["slowest"]:
                print(f"    {wall:8.3f}s  {label}")
        for failure in stats["failures"]:
            print(f"  FAILED {failure['label']}: {failure['error']}")


def _cmd_summary(args: argparse.Namespace) -> int:
    records = _load(args)
    if records is None:
        return 2
    _print_summary(summarize_manifest(records, spec=args.spec))
    if args.check:
        errors = validate_manifest(records)
        if errors:
            print(f"manifest INVALID ({len(errors)} problems):",
                  file=sys.stderr)
            for error in errors[:20]:
                print(f"  {error}", file=sys.stderr)
            return 1
        print(f"manifest OK ({len(records)} records)")
    return 0


def _cmd_slow(args: argparse.Namespace) -> int:
    records = _load(args)
    if records is None:
        return 2
    rows = [
        (float(record.get("wall_s", 0.0)), record.get("spec", "?"),
         record.get("label", "?"), record.get("executor", "?"))
        for record in records
        if record.get("rec") == "point" and record.get("cache") == "miss"
        and (args.spec is None or record.get("spec") == args.spec)
    ]
    rows.sort(key=lambda row: (-row[0], row[1], row[2]))
    if not rows:
        print("no computed points in manifest")
        return 0
    for wall, spec_name, label, executor in rows[:max(1, args.top)]:
        print(f"{wall:8.3f}s  {spec_name}  {label}  [{executor}]")
    return 0


def _format_event(event: Dict[str, Any]) -> str:
    head = f"t={event.get('t', 0.0):<12.6f} {event.get('kind', '?'):<16}"
    parts = []
    if event.get("node") is not None:
        parts.append(f"node={event['node']}")
    if event.get("obj") is not None:
        parts.append(f"obj={event['obj']}")
    for key in sorted(event):
        if key in ("t", "kind", "node", "obj"):
            continue
        parts.append(f"{key}={event[key]}")
    return head + " " + " ".join(parts)


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        lines = Path(args.path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        print(f"cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 2
    shown = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            print(f"(malformed line skipped: {line[:60]})", file=sys.stderr)
            continue
        if args.kind and not str(event.get("kind", "")).startswith(args.kind):
            continue
        if args.node and event.get("node") != args.node:
            continue
        if args.obj and event.get("obj") != args.obj:
            continue
        print(_format_event(event))
        shown += 1
        if args.limit and shown >= args.limit:
            break
    print(f"({shown} events)", file=sys.stderr)
    return 0


def main(argv: List[str]) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "summary":
        return _cmd_summary(args)
    if args.command == "slow":
        return _cmd_slow(args)
    return _cmd_trace(args)
