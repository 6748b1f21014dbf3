"""The repo benchmark's one entry point.

Driver form (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process, prints every metric by name with its
unit and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Suite form (no ``--workload``) runs all four workloads, each in its own
subprocess so ``ru_maxrss`` is that workload's alone, and writes one
result file with a machine fingerprint and per-metric statistics::

    python3 benchmarks/perf/run.py [--seed N] [--trace] [--quick] [--out F]
    python3 benchmarks/perf/run.py --aa     # two sets, compared by the gate

``python3 -m benchmarks.perf.run`` from the repo root is the same program.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Executed as a script: the script directory would shadow the stdlib
    # ``trace`` module with ours; make the repo root importable instead.
    sys.path[0] = str(_ROOT)
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(1, str(_ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from benchmarks.perf import compare, results  # noqa: E402

#: Environment switches of the program under test; scrubbed so a run
#: always measures the defaults (heap scheduler, no tracer, no workers).
SCRUBBED_ENV = ("REPRO_SCHEDULER", "REPRO_EXECUTOR", "REPRO_TRACE",
                "REPRO_WORKERS", "REPRO_SOCKET_LOG_DIR")

#: Fewest timed repetitions of a run, however short ``--seconds`` is.
MIN_REPS = 3

#: ``--seconds`` under ``--quick`` (all four workloads in ~10 s).
QUICK_SECONDS = 1.0

#: Raw spans written per thread to ``out/trace_<workload>.json``.
MAX_SPANS_WRITTEN = 200_000

#: Share of ``--seconds`` one ladder repetition must at least last.
LADDER_FLOOR_SHARE = 1 / 80


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spec_units(section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"]
            for entry in results.load_spec()[section]}


# -- one workload, in this process -----------------------------------------------


def _check_reps(name: str, reps: List[Any], digest: Optional[str],
                violations: List[str]) -> None:
    """Fold every repetition's violations in; pin the ``sim`` digest."""
    for index, rep in enumerate(reps):
        violations += [f"rep {index}: {text}" for text in rep.violations]
        if digest is not None and rep.digest != digest:
            violations.append(
                f"rep {index}: sim_digest {rep.digest} != warm-up {digest}")


def measure_end_to_end(name: str, params: Any, seed: int,
                       seconds: float) -> Dict[str, Any]:
    """Untraced repetitions for ``seconds``; the end-to-end metrics."""
    from benchmarks.perf import workloads

    rep = workloads.rep_function(name)
    violations: List[str] = []
    digest = None
    if name != "socket_mixed":
        # Warm-up: fills import-time and memoised state, runs the full
        # trace checkers, and fixes the digest every repetition must hit.
        warm = rep(params, seed, full_checks=True)
        violations += [f"warm-up: {text}" for text in warm.violations]
        digest = warm.digest
    gc.collect()
    reps: List[Any] = []
    peak_rss_mb = 0.0
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(rep(params, seed, full_checks=False))
        gc.collect()  # between repetitions, outside any timed region
        if len(reps) == 1:
            # Through the first timed repetition only: the number of
            # repetitions that fit into --seconds must not leak into it.
            peak_rss_mb = _peak_rss_mb()
    _check_reps(name, reps, digest, violations)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    units = _spec_units("end_to_end")
    samples = {
        "setup_s": [r.setup_s for r in reps],
        "ops_per_s": [r.ops_per_s for r in reps],
        "peak_rss_mb": [peak_rss_mb],
    }
    return {
        "correct": not violations,
        "violations": violations[:20],
        "attempted": attempted,
        "failed": failed,
        "reps": len(reps),
        "sim_digest": digest,
        "end_to_end": {
            metric: dict(results.summarize(values), unit=units[metric])
            for metric, values in samples.items()
        },
        "info": dict(
            workloads.latency_summary(reps),
            failed_share=failed / attempted,
            drive_s_median=results.summarize(
                [r.drive_s for r in reps])["median"],
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_per_layer(name: str, params: Any, seed: int, seconds: float,
                      ) -> Dict[str, Any]:
    """One untraced and one traced repetition plus the ladder rungs."""
    from benchmarks.perf import ladder, trace, workloads

    rep = workloads.rep_function(name)
    socket_run = name == "socket_mixed"
    violations: List[str] = []
    # Warm-up (on sim_* also the full trace checkers); the untraced
    # reference the overhead ratio is taken against runs warm.
    warm = rep(
        dataclasses.replace(params, ops_per_thread=params.warmup_ops)
        if socket_run else params, seed, full_checks=True)
    violations += [f"warm-up: {text}" for text in warm.violations]
    gc.collect()
    reference = rep(params, seed, full_checks=False)
    gc.collect()
    tracer = trace.Tracer(
        clock=time.thread_time if socket_run else time.perf_counter)
    with trace.installed(tracer):
        traced = rep(params, seed, full_checks=False, tracer=tracer)
    _check_reps(name, [reference, traced],
                None if socket_run else reference.digest, violations)
    summary = tracer.summary()
    if not socket_run:
        # One thread, one root span: every traced second must be some
        # layer's self time, and the root must cover the drive phase.
        gap = abs(summary["self_total_s"] - traced.drive_s)
        if gap > 0.02 * traced.drive_s:
            violations.append(
                f"span self times sum to {summary['self_total_s']:.4f} s "
                f"but the drive phase took {traced.drive_s:.4f} s")
    rungs = ladder.run_rungs(name, seconds * LADDER_FLOOR_SHARE,
                             str(results.OUT_DIR / f"ladder-{os.getpid()}"))

    counters = reference.counters
    ops = reference.attempted
    metrics: Dict[str, float] = {}
    for layer in trace.LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.self_share"] = entry["self_share"]
    metrics.update({
        "sim.events_per_s": _ratio(counters.get("events", 0),
                                   reference.drive_s),
        "sim.events_per_op": _ratio(counters.get("events", 0), ops),
        "net.datagrams_per_op": _ratio(counters["datagrams"], ops),
        "net.bytes_per_op": _ratio(counters["bytes"], ops),
        "net.dropped_per_op": _ratio(counters.get("dropped", 0), ops),
        "replication.coherence_msgs_per_write": _ratio(
            counters["coherence_msgs"], counters["writes"]),
        "replication.demand_share": _ratio(counters["tx_demand"],
                                           counters["rx_read"]),
        "faults.events_applied": counters.get("fault_events", 0),
        "faults.unavailable_read_share": counters.get(
            "unavailable_read_share", 0.0),
        "faults.dropped_crashed_per_op": _ratio(
            counters.get("dropped_crashed", 0), ops),
        "faults.dropped_partition_per_op": _ratio(
            counters.get("dropped_partition", 0), ops),
        "runtime.frames_per_op": _ratio(counters.get("frames", 0), ops),
        "runtime.hub_cpu_ms_per_op": _ratio(
            counters.get("hub_cpu_s", 0.0) * 1e3, ops),
        "runtime.node_cpu_ms_per_op": _ratio(
            counters.get("node_cpu_s", 0.0) * 1e3, ops),
        "runtime.node_rss_mb": counters.get("node_rss_mb", 0.0),
        "runtime.checkpoint_bytes_final": counters.get(
            "checkpoint_bytes", 0),
        "trace_overhead_ratio": traced.drive_s / reference.drive_s,
        "failed_share": reference.failed / reference.attempted,
    })
    latencies = workloads.latency_summary([reference])
    for metric in ("read_p50_ms", "read_p99_ms", "write_p50_ms"):
        metrics[metric] = latencies.get(metric, 0.0)
    metrics.update(rungs)

    trace_file = results.OUT_DIR / f"trace_{name}.json"
    results.write_json(trace_file, {
        "workload": name, "seed": seed,
        "clock": "thread_time" if socket_run else "perf_counter",
        "drive_s": traced.drive_s,
        "summary": summary,
        "spans": tracer.dump(MAX_SPANS_WRITTEN),
    })
    units = _spec_units("per_layer")
    # A rung that does not run under this workload reads 0, like every
    # metric of a layer the workload never enters.
    for metric in units:
        metrics.setdefault(metric, 0.0)
    return {
        "correct": not violations,
        "violations": violations[:20],
        "attempted": reference.attempted + traced.attempted,
        "failed": reference.failed + traced.failed,
        "sim_digest": reference.digest,
        "per_layer": {metric: {"value": value, "unit": units[metric]}
                      for metric, value in metrics.items()},
        "info": {
            "trace_file": str(trace_file.relative_to(results.ROOT)),
            "span_count": summary["span_count"],
            "self_total_s": summary["self_total_s"],
            "traced_drive_s": traced.drive_s,
            "top_span_kinds": summary["kinds"][:12],
        },
    }


def run_workload(args: argparse.Namespace) -> int:
    """Driver form: measure one workload here, print the JSON line last."""
    for variable in SCRUBBED_ENV:
        os.environ.pop(variable, None)
    from benchmarks.perf import trace, workloads

    name = args.workload
    params = (workloads.QUICK if args.quick else workloads.FULL)[name]
    slow = contextlib.nullcontext()
    if args.slow:
        seam, _, micros = args.slow.partition("=")
        slow = trace.slowed(seam, float(micros))
    with slow:
        if args.trace:
            document = measure_per_layer(name, params, args.seed,
                                         args.seconds)
        else:
            document = measure_end_to_end(name, params, args.seed,
                                          args.seconds)
    document.update({
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "trace": args.trace, "slow": args.slow,
        "params": dataclasses.asdict(params),
    })
    if args.out:
        results.write_json(Path(args.out), document)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric, entry in document[section].items():
        value = entry["value"] if args.trace else entry["median"]
        metrics[metric] = {"value": value, "unit": entry["unit"]}
        print(f"{name}  {metric} = {value:.6g} {entry['unit']}")
    for key, value in document["info"].items():
        if isinstance(value, (int, float)):
            print(f"{name}  ({key} = {value:.6g})")
    if document["sim_digest"]:
        print(f"{name}  sim_digest = {document['sim_digest']}")
    for text in document["violations"]:
        print(f"{name}  CHECK FAILED: {text}")
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if document["correct"] else 1


# -- all workloads, one subprocess each -------------------------------------------


def run_suite(args: argparse.Namespace, out: Path) -> Dict[str, Any]:
    """Suite form: every workload in its own subprocess; one result file."""
    spec = results.load_spec()
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    suite: Dict[str, Any] = {
        "fingerprint": results.fingerprint(),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "slow": args.slow, "workloads": {},
    }
    results.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for entry in spec["workloads"]:
        name = entry["name"]
        merged: Dict[str, Any] = {}
        for traced in ([0, 1] if args.trace else [0]):
            part = results.OUT_DIR / f"part-{os.getpid()}-{name}-{traced}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
                "--out", str(part),
            ]
            if args.quick:
                command.append("--quick")
            if args.slow:
                command += ["--slow", args.slow]
            print(f"--- {name} (trace {traced})", flush=True)
            done = subprocess.run(command, env=env, cwd=str(results.ROOT),
                                  stdout=subprocess.PIPE, text=True)
            # Everything but the driver's JSON line is for people.
            print(done.stdout.rsplit("\n", 2)[0], flush=True)
            if not part.exists():
                raise SystemExit(
                    f"{name} (trace {traced}) produced no result "
                    f"(exit {done.returncode})")
            with open(part, encoding="utf-8") as fh:
                document = json.load(fh)
            part.unlink()
            if traced:
                merged["per_layer"] = document["per_layer"]
                merged["trace_info"] = document["info"]
                merged["correct"] = (merged["correct"]
                                     and document["correct"])
                merged["violations"] += document["violations"]
            else:
                merged = document
        suite["workloads"][name] = merged
    results.write_json(out, suite)
    print(f"wrote {out}")
    return suite


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run the driver, suite or A/A form."""
    spec = results.load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed repetitions per run "
                             f"(default {spec['run_seconds']}; "
                             f"{QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run and per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="scale every count down (smoke test); such "
                             "results are never valid recorded numbers")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and gate set 2 on set 1")
    parser.add_argument("--slow", metavar="SEAM=MICROS",
                        help="busy-wait before every call of a seam, e.g. "
                             "net.send=200 (to prove the gate trips)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (QUICK_SECONDS if args.quick
                        else float(spec["run_seconds"]))
    if not (_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    if args.out and args.quick and (
            Path(args.out).resolve() == compare.BASELINE.resolve()):
        parser.error("--quick results may not overwrite the recorded "
                     "baseline")
    if args.aa:
        first = run_suite(args, results.OUT_DIR / "aa_1.json")
        second = run_suite(args, results.OUT_DIR / "aa_2.json")
        return compare.report(first, second)
    suite = run_suite(
        args, Path(args.out) if args.out else results.OUT_DIR / "result.json")
    bad = [name for name, doc in suite["workloads"].items()
           if not doc["correct"]]
    for name in bad:
        print(f"FAILED CHECKS in {name}: "
              f"{suite['workloads'][name]['violations']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
