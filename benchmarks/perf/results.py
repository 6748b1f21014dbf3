"""Result documents: the metric spec, summary statistics, fingerprints.

Everything here is plain data handling shared by ``run.py`` (which
produces result files) and ``compare.py`` (which reads them); nothing
imports ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: The checkout root (``benchmarks/perf/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]
#: Everything the benchmark writes lands here (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Bounds for the latency and failure metrics that ``BENCHMARK.json``
#: lists under ``per_layer`` (they do not exist on the ``sim_*``
#: workloads, and its ``end_to_end`` metrics must exist on all four).
#: ``compare.py`` gates them with these; direction is "lower".
EXTRA_BOUNDS = {
    "read_p50_ms": 0.10,
    "read_p99_ms": 0.15,
    "write_p50_ms": 0.10,
}


def load_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, min, max, quartiles and ``n`` of one metric's samples."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of pre-sorted samples."""
    index = min(len(sorted_values) - 1, int(len(sorted_values) * q))
    return sorted_values[index]


def git_commit(root: Path = ROOT) -> Optional[str]:
    """HEAD's commit id read from ``.git`` directly; ``None`` outside git.

    Reads two small files instead of spawning ``git``, which would walk
    up into parent directories when the checkout is not a repository.
    """
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(
            encoding="utf-8"
        ).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> Dict[str, Any]:
    """What machine and tree a result file was measured on."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def write_json(path: Path, document: Dict[str, Any]) -> None:
    """Write ``document`` to ``path`` (parents created), atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
