"""Sweep execution: deterministic fan-out, one number to choose it.

``run_sweep(spec, parallel=N)`` evaluates every point of a
:class:`~repro.exec.spec.SweepSpec` and returns an ordered
``{label: result}`` mapping.  The runner owns *what* runs (cache
consultation, ordering, failure attribution); the worker count alone
decides *how*: one worker evaluates in process
(:func:`~repro.exec.backends.evaluate_in_process`), more are served by
the pull hub (:class:`~repro.exec.distributed.DistributedExecutor`).
Because each point's seed is derived from its config
(:mod:`repro.exec.seeding`) and ``run_point`` is pure, the results are
bit-identical either way -- and identical again when they come straight
out of the on-disk cache.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.exec.backends import (
    IN_PROCESS,
    PointTask,
    default_parallelism,
    evaluate_in_process,
)
from repro.exec.cache import ResultCache, function_fingerprint
from repro.exec.distributed import DistributedExecutor
from repro.exec.spec import SweepSpec
from repro.obs.manifest import RunManifest, point_record


class SweepPointError(RuntimeError):
    """One sweep point failed; carries the failing point's identity.

    ``executor`` names the path the point ran under (in process or the
    hub), so fan-out failures in sweep logs are attributable to the
    transport (or to the point function itself, when both fail alike).
    ``elapsed`` is the failing point's wall time inside the worker, and
    ``manifest_entry`` the run-manifest record built for it (persisted
    when the sweep had a manifest; still attached when not) -- so a
    failure is inspectable through ``python -m repro.obs summary`` like
    any other point.
    """

    def __init__(self, spec_name: str, label: Hashable,
                 config: Dict[str, Any], detail: str,
                 executor: str = "unknown", elapsed: float = 0.0,
                 manifest_entry: Optional[Dict[str, Any]] = None):
        self.spec_name = spec_name
        self.label = label
        self.config = config
        self.detail = detail
        self.executor = executor
        self.elapsed = elapsed
        self.manifest_entry = manifest_entry
        super().__init__(
            f"sweep {spec_name!r} point {label!r} failed on executor "
            f"{executor!r} after {elapsed:.3f}s (config={config!r}):"
            f"\n{detail}"
        )


def cached_point_labels(spec: SweepSpec, cache: ResultCache) -> List[Hashable]:
    """Labels of ``spec``'s points already present in ``cache``.

    A pure existence probe -- nothing is decoded and no hit/miss
    counters move -- so callers can report sweep coverage (how warm a
    grid is) without deserializing every stored result.
    """
    fn_key = function_fingerprint(spec.run_point)
    return [
        point.label for point in spec.points
        if cache.has(spec.name, spec.base_seed, point.config, fn_key,
                     point_seed=spec.seed_for(point))
    ]


def run_sweep(
    spec: SweepSpec,
    parallel: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    cache: Optional[ResultCache] = None,
    executor: Optional[DistributedExecutor] = None,
    manifest: Optional[RunManifest] = None,
) -> Dict[Hashable, Any]:
    """Evaluate every point of ``spec``; return ``{label: result}``.

    ``parallel`` is the worker count (``0`` = one worker per CPU),
    clamped to the pending-point count: one worker evaluates in this
    process, more are forked and served by the hub.  ``cache_dir`` (or a
    prebuilt ``cache``) enables the on-disk result cache; cached points
    are not recomputed.  Results come back in point-declaration order
    regardless of which worker finished first, bit-identical at every
    worker count.

    ``executor`` is a handle, not a choice: a caller that must watch the
    hub while it serves (which worker holds which point, transport
    byte counts) passes the instance to serve this sweep, at whatever
    worker count ``parallel`` says.

    ``manifest`` receives one telemetry record per point (wall time,
    peak RSS, cache hit/miss, executor) plus the run totals; when
    omitted, a cached sweep appends to ``manifest.jsonl`` in the cache
    root, and a cacheless sweep records nothing.
    """
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel!r}")
    labels = spec.labels()
    if len(set(labels)) != len(labels):
        raise ValueError(
            f"sweep {spec.name!r} has duplicate point labels; results "
            "would silently collapse"
        )
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if manifest is None and cache is not None:
        manifest = RunManifest.in_dir(cache.root)
    run_started = time.perf_counter()
    # The point function's own source is part of the cache key, so specs
    # defined outside the repro package still invalidate on edit.
    fn_key = function_fingerprint(spec.run_point) if cache else ""

    results: Dict[int, Any] = {}
    pending: List[int] = []
    hit_walls: List[Tuple[int, float]] = []
    for index, point in enumerate(spec.points):
        if cache is not None:
            probe_started = time.perf_counter()
            hit, value = cache.get(spec.name, spec.base_seed, point.config,
                                   fn_key, point_seed=spec.seed_for(point))
            if hit:
                results[index] = value
                hit_walls.append(
                    (index, time.perf_counter() - probe_started)
                )
                continue
        pending.append(index)

    tasks = [
        PointTask(
            run_point=spec.run_point,
            index=index,
            label=spec.points[index].label,
            config=spec.points[index].config,
            seed=spec.seed_for(spec.points[index]),
        )
        for index in pending
    ]
    workers = (default_parallelism(len(tasks)) if parallel == 0
               else min(parallel, max(1, len(tasks))))
    if executor is None and workers > 1:
        executor = DistributedExecutor()
    if executor is None:
        outcomes, path = evaluate_in_process(tasks), IN_PROCESS
    else:
        outcomes, path = executor.run(tasks, workers), executor.name
    if manifest is not None:
        # Hits are recorded once the path is known so every record of
        # this run names the same mechanism.
        for index, wall in hit_walls:
            manifest.record(point_record(
                spec.name, spec.points[index].label, "ok", "hit",
                path, wall,
            ))
    # Results stream in completion order; each one is cached (and its
    # transport bytes released) immediately, so a large sweep never
    # holds more than one undelivered payload.  Failures are remembered
    # rather than raised mid-stream: the hub finishes draining its
    # transport, completed points still reach the cache, and the
    # reported point is deterministic (lowest index) regardless of
    # which worker failed first.
    failures: Dict[int, Dict[str, Any]] = {}
    for index, ok, payload, telemetry, blob in outcomes:
        point = spec.points[index]
        entry = point_record(
            spec.name, point.label, "ok" if ok else "failed", "miss", path,
            telemetry.wall_s, peak_rss_kb=telemetry.peak_rss_kb,
            events=telemetry.events, retries=telemetry.retries,
            worker=telemetry.worker, error=None if ok else str(payload),
        )
        if manifest is not None:
            manifest.record(entry)
        if not ok:
            failures[index] = entry
            continue
        results[index] = payload
        if cache is not None:
            if blob is not None:
                # The transport already produced the canonical bytes;
                # they go straight to disk without re-encoding.
                cache.put_encoded(spec.name, spec.base_seed, point.config,
                                  blob, fn_key,
                                  point_seed=spec.seed_for(point))
            else:
                cache.put(spec.name, spec.base_seed, point.config, payload,
                          fn_key, point_seed=spec.seed_for(point))
    if manifest is not None:
        manifest.record_run(
            spec.name, path, workers, len(spec.points),
            computed=len(tasks) - len(failures), hits=len(hit_walls),
            failures=len(failures),
            wall_s=time.perf_counter() - run_started,
        )
    if failures:
        index = min(failures)
        point = spec.points[index]
        entry = failures[index]
        raise SweepPointError(
            spec.name, point.label, point.config, entry["error"],
            executor=path, elapsed=entry["wall_s"], manifest_entry=entry,
        )

    return {
        point.label: results[index]
        for index, point in enumerate(spec.points)
    }
