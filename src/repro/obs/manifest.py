"""Run manifests: per-point sweep telemetry as JSONL under the cache.

Every cached :func:`~repro.exec.run_sweep` appends to one
``manifest.jsonl`` in the cache root: a ``point`` record per evaluated
point (wall time, peak RSS, cache hit/miss, executor name, traced-event
count, failure text) and a ``run`` record per sweep invocation with the
totals.  The file is telemetry, not results -- appends are best-effort,
wall times are nondeterministic, and nothing in the result-cache
keying touches it (entries live under per-fingerprint directories;
:meth:`~repro.exec.ResultCache.evict_stale` never removes it).

``python -m repro.obs summary`` renders the aggregation implemented by
:func:`summarize_manifest`; ``--check`` runs :func:`validate_manifest`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

#: File name of the manifest inside a result-cache root.
MANIFEST_NAME = "manifest.jsonl"

#: Required keys (and value types) of one ``point`` record.
_POINT_FIELDS = {
    "spec": str,
    "label": str,
    "status": str,
    "cache": str,
    "executor": str,
    "wall_s": (int, float),
    "peak_rss_kb": int,
    "events": int,
    "retries": int,
}

#: Required keys (and value types) of one ``run`` record.
_RUN_FIELDS = {
    "spec": str,
    "executor": str,
    "workers": int,
    "points": int,
    "computed": int,
    "hits": int,
    "failures": int,
    "wall_s": (int, float),
}


def point_record(
    spec: str,
    label: Any,
    status: str,
    cache: str,
    executor: str,
    wall_s: float,
    peak_rss_kb: int = 0,
    events: int = 0,
    retries: int = 0,
    worker: str = "",
    error: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one ``point`` manifest record (plain dict, JSON-ready).

    ``worker`` names the hub worker that computed the point; the key
    is emitted only when set, so in-process manifests do not carry it.
    """
    record: Dict[str, Any] = {
        "rec": "point",
        "spec": spec,
        "label": str(label),
        "status": status,
        "cache": cache,
        "executor": executor,
        "wall_s": round(float(wall_s), 6),
        "peak_rss_kb": int(peak_rss_kb),
        "events": int(events),
        "retries": int(retries),
    }
    if worker:
        record["worker"] = str(worker)
    if error is not None:
        record["error"] = error
    return record


class RunManifest:
    """Append-only JSONL telemetry for sweep runs.

    Writes are best-effort (an unwritable manifest must never fail a
    sweep) and line-buffered-per-record, so concurrent sweeps sharing
    one cache interleave whole records rather than corrupt them.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    @classmethod
    def in_dir(cls, root: os.PathLike) -> "RunManifest":
        """The manifest living inside the cache root ``root``."""
        return cls(Path(root) / MANIFEST_NAME)

    def record(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line (best-effort)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass

    def record_run(
        self,
        spec: str,
        executor: str,
        workers: int,
        points: int,
        computed: int,
        hits: int,
        failures: int,
        wall_s: float,
    ) -> None:
        """Append the per-invocation ``run`` totals record."""
        self.record({
            "rec": "run",
            "spec": spec,
            "executor": executor,
            "workers": int(workers),
            "points": int(points),
            "computed": int(computed),
            "hits": int(hits),
            "failures": int(failures),
            "wall_s": round(float(wall_s), 6),
        })

    def read(self) -> List[Dict[str, Any]]:
        """All records currently in the manifest (see :func:`load_manifest`)."""
        return load_manifest(self.path)


def load_manifest(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse a manifest file into its record dicts.

    Raises ``FileNotFoundError`` when the manifest does not exist;
    malformed lines surface as records tagged ``{"rec": "malformed"}``
    so :func:`validate_manifest` can report them with a line number.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                records.append(
                    {"rec": "malformed", "line": number, "detail": str(exc)}
                )
                continue
            if not isinstance(record, dict):
                record = {"rec": "malformed", "line": number,
                          "detail": "not a JSON object"}
            record.setdefault("line", number)
            records.append(record)
    return records


def _check_fields(record: Dict[str, Any], fields: Dict[str, Any]
                  ) -> List[str]:
    problems = []
    for key, types in fields.items():
        if key not in record:
            problems.append(f"missing key {key!r}")
        elif not isinstance(record[key], types) or isinstance(
                record[key], bool):
            problems.append(f"key {key!r} has wrong type "
                            f"{type(record[key]).__name__}")
    return problems


def validate_manifest(records: List[Dict[str, Any]]) -> List[str]:
    """Well-formedness errors of a loaded manifest (empty = valid).

    Every record must be a ``point`` or ``run`` record with the
    documented keys and types; ``python -m repro.obs summary --check``
    turns a non-empty return into exit code 1.
    """
    errors: List[str] = []
    for record in records:
        line = record.get("line", "?")
        kind = record.get("rec")
        if kind == "malformed":
            errors.append(f"line {line}: {record.get('detail')}")
        elif kind == "point":
            errors.extend(
                f"line {line}: {problem}"
                for problem in _check_fields(record, _POINT_FIELDS)
            )
            if record.get("status") not in ("ok", "failed"):
                errors.append(f"line {line}: bad status "
                              f"{record.get('status')!r}")
            if record.get("cache") not in ("hit", "miss"):
                errors.append(f"line {line}: bad cache tag "
                              f"{record.get('cache')!r}")
            if "worker" in record and not isinstance(record["worker"], str):
                errors.append(f"line {line}: key 'worker' has wrong type "
                              f"{type(record['worker']).__name__}")
        elif kind == "run":
            errors.extend(
                f"line {line}: {problem}"
                for problem in _check_fields(record, _RUN_FIELDS)
            )
        else:
            errors.append(f"line {line}: unknown record kind {kind!r}")
    return errors


def summarize_manifest(
    records: List[Dict[str, Any]],
    spec: Optional[str] = None,
    slowest: int = 5,
) -> Dict[str, Any]:
    """Aggregate manifest records into per-spec run-health statistics.

    Returns ``{"specs": {spec: stats}, "records": total}`` where each
    stats dict carries point counts (hits / computed / failed), wall
    time totals, peak RSS, traced-event totals, per-executor point
    counts, retry totals, per-worker attribution (``workers``: daemon
    name -> point/retry counts, filled by distributed sweeps), the
    ``slowest`` computed points and every failure.  Only ``point``
    records contribute; ``run`` records are invocation logs.
    """
    specs: Dict[str, Dict[str, Any]] = {}
    total = 0
    for record in records:
        if record.get("rec") != "point":
            if record.get("rec") == "run":
                total += 1
            continue
        total += 1
        name = record.get("spec", "?")
        if spec is not None and name != spec:
            continue
        stats = specs.setdefault(name, {
            "points": 0, "hits": 0, "computed": 0, "failed": 0,
            "wall_total_s": 0.0, "wall_max_s": 0.0,
            "peak_rss_kb": 0, "events": 0, "retries": 0,
            "executors": {}, "workers": {}, "slowest": [], "failures": [],
        })
        stats["points"] += 1
        wall = float(record.get("wall_s", 0.0))
        stats["wall_total_s"] += wall
        stats["wall_max_s"] = max(stats["wall_max_s"], wall)
        stats["peak_rss_kb"] = max(
            stats["peak_rss_kb"], int(record.get("peak_rss_kb", 0))
        )
        stats["events"] += int(record.get("events", 0))
        executor = record.get("executor", "?")
        stats["executors"][executor] = (
            stats["executors"].get(executor, 0) + 1
        )
        retries = int(record.get("retries", 0))
        stats["retries"] += retries
        worker = record.get("worker")
        if worker:
            entry = stats["workers"].setdefault(
                worker, {"points": 0, "retries": 0}
            )
            entry["points"] += 1
            entry["retries"] += retries
        if record.get("cache") == "hit":
            stats["hits"] += 1
        else:
            stats["computed"] += 1
            stats["slowest"].append((record.get("label", "?"), wall))
        if record.get("status") == "failed":
            stats["failed"] += 1
            error_text = (record.get("error") or "").strip()
            stats["failures"].append({
                "label": record.get("label", "?"),
                # The last traceback line is the exception itself.
                "error": error_text.splitlines()[-1] if error_text else "",
            })
    for stats in specs.values():
        stats["wall_mean_s"] = (
            stats["wall_total_s"] / stats["points"] if stats["points"]
            else 0.0
        )
        stats["slowest"] = sorted(
            stats["slowest"], key=lambda item: (-item[1], str(item[0]))
        )[:slowest]
    return {"specs": specs, "records": total}
