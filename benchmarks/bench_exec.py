"""Sweep-execution benchmark: in process vs the hub at 1/2/4 workers.

Three sections, emitted as ``BENCH_exec.json``::

    python benchmarks/bench_exec.py                  # defaults
    python benchmarks/bench_exec.py --points 16 --samples 200000
    python benchmarks/bench_exec.py --out BENCH_exec.json

- ``payload_heavy``: one large-trace sweep -- every point returns
  multi-hundred-KB payloads of per-metric sample arrays and trace
  records, the shape the report grids actually produce -- on a cold
  on-disk cache, in process (``serial``) and through the hub with 1, 2
  and 4 forked workers.  Hub rows carry its transport accounting:
  ``payload_bytes`` (encoded result volume), ``wire_bytes`` (framed
  socket traffic) and ``retries``.
- ``stall_bound``: the same four rows on a sweep whose points each hold
  a fixed stall (the shape of remote compute or I/O).  Worker capacity
  is additive there, so points/sec rises above the serial baseline as
  workers are added -- on any host, including 1-CPU boxes where a
  CPU-bound sweep cannot parallelize at all.
- ``fixed_overhead``: ``run_sweep(parallel=2)`` over 4 and 64 no-op
  points: what it costs to bind the hub, fork the workers, serve and
  shut down, with nothing to compute.

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
from typing import Any, Dict, Optional

from repro.exec import (
    DistributedExecutor,
    ResultCache,
    SweepSpec,
    run_sweep,
)

#: Hub worker counts every section's parallel rows run at.
WORKER_COUNTS = (1, 2, 4)


def large_trace_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One sweep point returning a large, trace-shaped payload.

    Exact binary fractions of the derived seed keep the payload
    deterministic (and bit-identical at every worker count) without an
    RNG.
    """
    samples = int(config["samples"])
    base = seed % (1 << 20)
    return {
        "label": config["tag"],
        # Per-metric sample arrays: the bulk of a real grid point's
        # bytes.
        "latencies": [(base + i) / 1024.0 for i in range(samples)],
        "lags": [(base + 2 * i) / 2048.0 for i in range(samples)],
        "versions": [(base + i) % 251 for i in range(samples)],
        # Trace records: small heterogeneous dicts.
        "records": [
            {"node": f"cache-{i % 7}", "version": i, "stale": False}
            for i in range(256)
        ],
        "summary": {"samples": samples, "seed": seed},
    }


def build_spec(points: int, samples: int) -> SweepSpec:
    """The benchmark sweep: ``points`` large-trace points."""
    spec = SweepSpec(name="bench-exec", run_point=large_trace_point)
    for index in range(points):
        spec.add(f"pt-{index:02d}", tag=f"pt-{index:02d}", samples=samples)
    return spec


def stalled_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One stall-bound point: a fixed hold, then a small pure payload.

    The stall stands in for the remote compute / device I/O a
    multi-host sweep fans out; the payload stays deterministic so the
    parallel runs remain byte-identical to serial.
    """
    time.sleep(float(config["stall_s"]))
    base = seed % (1 << 16)
    return {
        "label": config["tag"],
        "samples": [(base + i) / 64.0 for i in range(512)],
        "summary": {"seed": seed, "stall_s": config["stall_s"]},
    }


def build_stalled_spec(points: int, stall_s: float) -> SweepSpec:
    """The scaling sweep: ``points`` stall-bound points."""
    spec = SweepSpec(name="bench-exec-stalled", run_point=stalled_point)
    for index in range(points):
        spec.add(f"st-{index:02d}", tag=f"st-{index:02d}", stall_s=stall_s)
    return spec


def noop_point(config: Dict[str, Any], seed: int) -> int:
    """Nothing to compute: what remains is the machinery."""
    return config["index"]


def build_noop_spec(points: int) -> SweepSpec:
    """The fixed-overhead sweep: ``points`` no-op points."""
    spec = SweepSpec(name="bench-exec-noop", run_point=noop_point)
    for index in range(points):
        spec.add(f"np-{index:02d}", index=index)
    return spec


def bench_rows(spec_factory, repeats: int) -> Dict[str, Any]:
    """``serial`` plus one hub row per worker count, on a cold cache.

    Each run gets a fresh (cold) on-disk cache, the configuration every
    real grid sweep runs under: the timing therefore includes writing
    each point's entry, which the hub does from the worker's
    already-encoded bytes while the in-process path encodes.  The best
    of ``repeats`` passes counts -- single-pass timings drift by
    several percent run to run.  Hub rows include worker start-up and
    shutdown, so the numbers are end-to-end, not steady-state.
    """
    rows: Dict[str, Any] = {}
    points = len(spec_factory().points)
    for workers in (None,) + WORKER_COUNTS:
        elapsed = float("inf")
        hub: Optional[DistributedExecutor] = None
        for _ in range(repeats):
            # The instance is only a handle on the transport counters;
            # passing it at one worker measures the hub itself.
            hub = DistributedExecutor() if workers else None
            with tempfile.TemporaryDirectory(prefix="bench-exec-") as root:
                cache = ResultCache(root)
                started = time.perf_counter()
                measured = run_sweep(spec_factory(), parallel=workers or 1,
                                     executor=hub, cache=cache)
                elapsed = min(elapsed, time.perf_counter() - started)
                assert len(measured) == points
                assert cache.writes == points
        row: Dict[str, Any] = {
            "seconds": round(elapsed, 4),
            "points_per_sec": round(points / elapsed, 3),
        }
        if hub is None:
            name = "serial"
        else:
            name = f"parallel_{workers}w"
            row.update(
                workers=workers,
                payload_bytes=hub.stats.payload_bytes,
                wire_bytes=hub.stats.wire_bytes,
                retries=hub.stats.retries,
                speedup_vs_serial=round(
                    rows["serial"]["seconds"] / elapsed, 3),
            )
        rows[name] = row
        print(f"{name:>12}: {row['points_per_sec']:9.2f} points/sec"
              + (f"   wire {row['wire_bytes']:>12,} B   "
                 f"speedup {row['speedup_vs_serial']:.2f}x" if hub else ""))
    return rows


def bench_fixed_overhead(repeats: int) -> Dict[str, Any]:
    """Best-of-N wall time of ``run_sweep(parallel=2)`` on no-op points."""
    section: Dict[str, Any] = {"workers": 2, "best_of": repeats}
    for points in (4, 64):
        elapsed = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            measured = run_sweep(build_noop_spec(points), parallel=2)
            elapsed = min(elapsed, time.perf_counter() - started)
            assert len(measured) == points
        section[f"points_{points}_ms"] = round(elapsed * 1000, 2)
        print(f"{'no-op x' + str(points):>12}: {elapsed * 1000:9.2f} ms")
    return section


def main(argv) -> int:
    """Run the three sections and write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_exec.py",
        description="Benchmark sweep execution: in process vs the hub.",
    )
    parser.add_argument("--points", type=int, default=8,
                        help="payload-heavy sweep points (default 8)")
    parser.add_argument("--samples", type=int, default=100_000,
                        help="samples per metric array per point "
                             "(default 100000; ~2.4 MB of arrays/point)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed passes per payload-heavy row; the "
                             "best run counts (default 3)")
    parser.add_argument("--stall-points", type=int, default=16,
                        help="points in the stall-bound sweep "
                             "(default 16)")
    parser.add_argument("--stall", type=float, default=0.25,
                        help="per-point stall in the stall-bound sweep, "
                             "seconds (default 0.25)")
    parser.add_argument("--overhead-repeats", type=int, default=10,
                        help="passes per fixed-overhead row; the best "
                             "run counts (default 10)")
    parser.add_argument("--out", default="BENCH_exec.json",
                        help="report path (default BENCH_exec.json)")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {
        "benchmark": "sweep execution: in process vs the hub's workers",
        # The host matters: with fewer CPUs than workers the hub rows
        # of the payload-heavy sweep measure transport overhead, not
        # overlap; the stall-bound rows scale regardless.
        "cpu_count": os.cpu_count(),
    }
    print("payload-heavy sweep")
    report["payload_heavy"] = {
        "points": args.points,
        "samples_per_point": args.samples,
        "best_of": args.repeats,
        "rows": bench_rows(lambda: build_spec(args.points, args.samples),
                           args.repeats),
    }
    print("stall-bound sweep")
    # One pass per row: the timing is stall-dominated, so run-to-run
    # drift is far below the worker-count effect being measured.
    report["stall_bound"] = {
        "points": args.stall_points,
        "stall_s_per_point": args.stall,
        "best_of": 1,
        "rows": bench_rows(
            lambda: build_stalled_spec(args.stall_points, args.stall), 1),
    }
    print("fixed overhead, parallel=2")
    report["fixed_overhead"] = bench_fixed_overhead(args.overhead_repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
