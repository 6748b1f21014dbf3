"""Single-run experiments on the sweep runner: caching without sweeping.

The figure/table experiments (T1/T2, F1-F4) are one deployment each, so
they gain nothing from fan-out -- but they gain exactly as much from the
on-disk cache as any sweep point: ``python -m repro.experiments`` with no
selection re-simulates all of them on every invocation.
:func:`run_cached_single` wraps one such run as a one-point
:class:`~repro.exec.spec.SweepSpec` and executes it through
:func:`~repro.exec.runner.run_sweep`, so the result flows through (and
is invalidated by) the same config-hash + code-fingerprint cache keys.

The experiment's own ``seed`` travels *inside* the config -- point
functions ignore the runner-derived seed -- so porting an experiment onto
the cache changes none of its output.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.exec.runner import run_sweep
from repro.exec.spec import PointFunction, SweepSpec

#: Label of the single point in a wrapped single-run spec.
POINT_LABEL = "run"


def run_cached_single(
    name: str,
    run_point: PointFunction,
    config: Dict[str, Any],
    cache_dir: Optional[os.PathLike] = None,
) -> Any:
    """Run one single-run experiment through the runner/cache.

    ``name`` keys the cache (use a stable per-experiment identifier);
    ``config`` must be plain data (it is hashed into the cache key) and
    should carry everything the run depends on, including its seed.
    """
    spec = SweepSpec(name=name, run_point=run_point)
    spec.add(POINT_LABEL, **config)
    return run_sweep(spec, parallel=1, cache_dir=cache_dir)[POINT_LABEL]
