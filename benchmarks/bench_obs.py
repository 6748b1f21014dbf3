"""Observability benchmark: tracing throughput and disabled-path overhead.

Two measurements, emitted as ``BENCH_obs.json``::

    python benchmarks/bench_obs.py                 # defaults
    python benchmarks/bench_obs.py --repeats 5 --out BENCH_obs.json

1. **Disabled-tracer sweep overhead** -- the bench_exec large-trace
   sweep runs serially with the trace hooks compiled in but no tracer
   installed, and its points/sec is compared against the
   ``BENCH_exec.json`` serial baseline.  The ratio is the price every
   untraced sweep pays for the observability layer; the gate is <2%
   regression.  The comparison is only meaningful when the baseline
   was measured on the same machine state -- re-run
   ``python benchmarks/bench_exec.py`` first when in doubt, as raw
   points/sec moves far more than 2% between hosts.

2. **Tracing throughput** -- a deterministic simulated scenario (the
   backend-smoke workload) runs with tracing off and with a
   :class:`~repro.obs.tracer.RecordingTracer` installed, reporting
   events-traced/sec and the enabled-run overhead ratio.

Not a pytest module: run it directly (CI treats the perf trajectory as
data, not as a gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_exec import build_spec  # noqa: E402

from repro.exec import ResultCache, run_sweep  # noqa: E402
from repro.exec.live import live_smoke_point  # noqa: E402
from repro.obs import trace_run  # noqa: E402

#: The simulated scenario both tracing measurements run.
SIM_CONFIG = {"backend": "sim", "writes": 8, "n_caches": 3, "seed": 7}


def bench_disabled_sweep(points: int, samples: int,
                         repeats: int) -> Dict[str, Any]:
    """Serial sweep points/sec with hooks present and tracing disabled."""
    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-obs-") as cache_dir:
            started = time.perf_counter()
            run_sweep(build_spec(points, samples), parallel=1,
                      cache=ResultCache(cache_dir))
            best = min(best, time.perf_counter() - started)
    return {
        "points": points,
        "samples_per_point": samples,
        "seconds": round(best, 4),
        "points_per_sec": round(points / best, 3),
    }


def bench_sim_tracing(repeats: int) -> Dict[str, Any]:
    """The smoke scenario with tracing off vs. recording, plus events/sec."""
    disabled = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        live_smoke_point(dict(SIM_CONFIG), seed=0)
        disabled = min(disabled, time.perf_counter() - started)

    enabled = float("inf")
    events = 0
    for _ in range(repeats):
        started = time.perf_counter()
        with trace_run() as tracer:
            live_smoke_point(dict(SIM_CONFIG), seed=0)
        enabled = min(enabled, time.perf_counter() - started)
        events = len(tracer)
    return {
        "scenario": dict(SIM_CONFIG),
        "events_per_run": events,
        "disabled_seconds": round(disabled, 5),
        "enabled_seconds": round(enabled, 5),
        "events_per_sec": round(events / enabled, 1) if enabled else None,
        "enabled_overhead_ratio": (
            round(enabled / disabled, 4) if disabled else None
        ),
    }


def main(argv) -> int:
    """Run both measurements and write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_obs.py",
        description="Benchmark the repro.obs tracing layer.",
    )
    parser.add_argument("--points", type=int, default=8,
                        help="sweep points for the disabled-path "
                             "measurement (default 8, as in bench_exec)")
    parser.add_argument("--samples", type=int, default=100_000,
                        help="samples per metric array per point "
                             "(default 100000, as in bench_exec)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; the best run counts "
                             "(default 3)")
    parser.add_argument("--baseline", default="BENCH_exec.json",
                        help="committed sweep-execution benchmark to compare "
                             "the disabled path against "
                             "(default BENCH_exec.json)")
    parser.add_argument("--out", default="BENCH_obs.json",
                        help="report path (default BENCH_obs.json)")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {
        "benchmark": "repro.obs tracing overhead and throughput",
        "cpu_count": os.cpu_count(),
    }

    sweep = bench_disabled_sweep(args.points, args.samples, args.repeats)
    report["sweep_tracing_disabled"] = sweep
    print(f"sweep, tracing disabled: {sweep['points_per_sec']:8.2f} "
          "points/sec")

    baseline_pps = None
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        baseline_pps = (
            baseline["payload_heavy"]["rows"]["serial"]["points_per_sec"]
        )
    except (OSError, KeyError, ValueError):
        print(f"(no serial baseline in {args.baseline}; skipping the "
              "regression comparison)")
    if baseline_pps:
        ratio = sweep["points_per_sec"] / baseline_pps
        report["vs_exec_baseline"] = {
            "baseline_points_per_sec": baseline_pps,
            "points_per_sec_ratio": round(ratio, 4),
            "overhead_pct": round((1 - ratio) * 100, 2),
        }
        print(f"   vs committed serial baseline {baseline_pps:.2f}: "
              f"ratio {ratio:.4f} "
              f"({report['vs_exec_baseline']['overhead_pct']:+.2f}% "
              "overhead)")

    tracing = bench_sim_tracing(args.repeats)
    report["sim_tracing"] = tracing
    print(f"sim scenario: {tracing['events_per_run']} events/run, "
          f"{tracing['events_per_sec']:,.0f} events/sec traced, "
          f"enabled/disabled ratio {tracing['enabled_overhead_ratio']}")

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
