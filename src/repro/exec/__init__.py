"""Parallel sweep execution with deterministic fan-out and caching.

The experiments layer describes a sweep as a :class:`SweepSpec` -- a
list of independent points plus a pure ``run_point(config, seed)``
function -- and :func:`run_sweep` executes it; how is one number:

- ``parallel=1`` evaluates the pending points in the calling process
  (:func:`~repro.exec.backends.evaluate_in_process`); ``parallel=N``
  (``0`` = one per CPU) forks N local workers and serves them from a
  pull hub over the framed wire layer
  (:class:`DistributedExecutor`), which also admits workers started on
  other hosts when ``REPRO_HUB_BIND`` names a reachable address;
- the codec (:mod:`repro.exec.codec`, memo-free pickle) gives every
  per-point result one canonical byte form shared by the hub's result
  frames and the on-disk :class:`ResultCache`;
- seeds derive from a stable hash of each point's config
  (:func:`derive_seed`), so both paths produce bit-identical results.

Typical use::

    from repro.exec import SweepSpec, run_sweep

    def my_point(config, seed):          # module-level, pure, picklable
        return simulate(n=config["n"], seed=seed)

    spec = SweepSpec(name="my-sweep", run_point=my_point)
    for n in (1, 2, 4, 8):
        spec.add(f"n={n}", n=n)
    measured = run_sweep(spec, parallel=4, cache_dir=".sweep-cache")
"""

from repro.exec.backends import (
    ExecutorStats,
    PointTask,
    default_parallelism,
)
from repro.exec.cache import ResultCache, code_fingerprint
from repro.exec.cli import (
    add_exec_arguments,
    apply_cache_maintenance,
    exec_kwargs,
    supported_exec_kwargs,
)
from repro.exec.codec import CodecError, decode_result, encode_result
from repro.exec.distributed import HUB_BIND_ENV, DistributedExecutor
from repro.exec.runner import (
    SweepPointError,
    cached_point_labels,
    run_sweep,
)
from repro.exec.seeding import config_hash, derive_seed
from repro.exec.spec import SweepPoint, SweepSpec

__all__ = [
    "CodecError",
    "DistributedExecutor",
    "ExecutorStats",
    "HUB_BIND_ENV",
    "PointTask",
    "ResultCache",
    "SweepPoint",
    "SweepPointError",
    "SweepSpec",
    "add_exec_arguments",
    "apply_cache_maintenance",
    "cached_point_labels",
    "code_fingerprint",
    "config_hash",
    "decode_result",
    "default_parallelism",
    "derive_seed",
    "encode_result",
    "exec_kwargs",
    "run_sweep",
    "supported_exec_kwargs",
]
