"""The regression gate: compare two result files metric by metric.

::

    python3 benchmarks/perf/compare.py BASE.json NEW.json

Each workload gets its own row per metric.  ``NEW`` regresses a metric
when its median is worse than ``BASE``'s by more than the bound
``BENCHMARK.json`` fixes for it (latency bounds that file cannot carry
live in :data:`results.EXTRA_BOUNDS`).  A metric whose own repetitions
spread (quartile distance over median) wider than the bound on either
side is reported *unresolved*, not unchanged -- unless every repetition
of ``NEW`` reads better than every repetition of ``BASE``.  Exit status
is non-zero on a regression, on a ``sim_digest`` mismatch (a simulated
outcome changed), on a failed correctness check, or when the share of
failed operations rose.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

import argparse  # noqa: E402
import json  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional, Tuple  # noqa: E402

from benchmarks.perf import results  # noqa: E402

#: The committed full-size numbers ``BENCHMARK.json``'s schema has no
#: room for; the default base of a comparison.
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _spread(stats: Dict[str, float]) -> float:
    """Quartile distance over median of one side's own repetitions."""
    if not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def _gated(spec: Dict[str, Any], document: Dict[str, Any],
           ) -> Iterator[Tuple[str, str, float, Dict[str, float]]]:
    """(metric, better, bound, stats) for every gated metric present."""
    for entry in spec["end_to_end"]:
        stats = document.get("end_to_end", {}).get(entry["name"])
        if stats is not None:
            yield entry["name"], entry["better"], entry["bound"], stats
    for name, bound in results.EXTRA_BOUNDS.items():
        value = (document.get("per_layer", {}).get(name, {}).get("value")
                 or document.get("info", {}).get(name))
        if value:  # absent or 0 = does not apply to this workload
            stats = {"median": value, "q1": value, "q3": value,
                     "min": value, "max": value, "n": 1}
            yield name, "lower", bound, stats


def compare(base: Dict[str, Any], new: Dict[str, Any],
            spec: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    """One row per (workload, gated metric) plus one verdict row each."""
    spec = spec or results.load_spec()
    if base.get("quick") != new.get("quick"):
        raise SystemExit("refusing to compare a --quick result with a "
                         "full-size one")
    rows: List[Dict[str, Any]] = []
    for name, old in base["workloads"].items():
        fresh = new["workloads"].get(name)
        if fresh is None:
            rows.append({"workload": name, "metric": "(workload)",
                         "status": "MISSING"})
            continue
        problems = []
        if not (old["correct"] and fresh["correct"]):
            problems.append("correctness check failed")
        if old.get("sim_digest") != fresh.get("sim_digest") and (
                base["seed"] == new["seed"]):
            problems.append("sim_digest differs")
        old_share = old["failed"] / old["attempted"]
        new_share = fresh["failed"] / fresh["attempted"]
        simulated = old.get("sim_digest") is not None
        if new_share > old_share or (simulated and new_share != old_share
                                     and base["seed"] == new["seed"]):
            problems.append(
                f"failed_share {old_share:.4g} -> {new_share:.4g}")
        rows.append({"workload": name, "metric": "(checks)",
                     "status": "FAILED: " + "; ".join(problems)
                     if problems else "ok"})
        fresh_stats = {metric: stats
                       for metric, _, _, stats in _gated(spec, fresh)}
        for metric, better, bound, stats in _gated(spec, old):
            other = fresh_stats.get(metric)
            if other is None:
                continue
            worse = _worse_by(stats["median"], other["median"], better)
            all_better = (
                other["max"] < stats["min"] if better == "lower"
                else other["min"] > stats["max"]
            )
            if max(_spread(stats), _spread(other)) > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "REGRESSION"
            else:
                status = "ok"
            rows.append({
                "workload": name, "metric": metric, "status": status,
                "base": stats["median"], "new": other["median"],
                "worse_by": worse, "bound": bound,
                "spread": max(_spread(stats), _spread(other)),
            })
    return rows


def report(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    """Print the comparison; the exit status of the gate."""
    rows = compare(base, new)
    if base.get("quick"):
        print("NOTE: --quick results; never valid as recorded numbers")
    print(f"{'workload':<18}{'metric':<14}{'base':>12}{'new':>12}"
          f"{'worse by':>10}{'bound':>8}{'spread':>8}  status")
    for row in rows:
        if "base" not in row:
            print(f"{row['workload']:<18}{row['metric']:<14}"
                  f"{'':>50}  {row['status']}")
            continue
        print(f"{row['workload']:<18}{row['metric']:<14}"
              f"{row['base']:>12.5g}{row['new']:>12.5g}"
              f"{row['worse_by']:>+10.1%}{row['bound']:>8.0%}"
              f"{row['spread']:>8.1%}  {row['status']}")
    failed = [row for row in rows
              if row["status"] not in ("ok", "unresolved")]
    print(f"{len(failed)} failing row(s), "
          f"{sum(row['status'] == 'unresolved' for row in rows)} unresolved")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Compare two result files named on the command line."""
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/compare.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?", default=str(BASELINE),
                        help="result file of the parent (default: the "
                             "committed baseline.json)")
    parser.add_argument("new", help="result file of the change")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    return report(*documents)


if __name__ == "__main__":
    sys.exit(main())
