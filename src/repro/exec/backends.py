"""What a sweep point is to the machinery that runs it.

The runner (:mod:`repro.exec.runner`) decides *what* to run -- which
points are pending after the cache is consulted -- and turns each into
a :class:`PointTask`.  There are exactly two ways a task is evaluated,
chosen by the worker count alone: :func:`evaluate_in_process` (one
worker: the calling process, in order) and the pull hub of
:mod:`repro.exec.distributed` (more: forked local workers, plus any
remote daemons that join).  Both hand back :class:`TaskResult` tuples
built by the same :func:`_evaluate`, so telemetry, ``REPRO_TRACE``
tracing and failure capture behave identically.

Because every point's seed is derived from its config and point
functions are pure, the two ways are pure mechanism: they return
bit-identical results and leave bit-identical cache entries at any
worker count, in any completion order.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
)

from repro.obs import tracer as _obs

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Manifest/error name of the in-process path (the hub's is
#: :attr:`repro.exec.distributed.DistributedExecutor.name`).
IN_PROCESS = "serial"


@dataclasses.dataclass(frozen=True)
class PointTask:
    """One unit of sweep work: evaluate ``run_point(config, seed)``.

    Carries the point's label so fan-out failures stay attributable
    without a trip back to the spec.
    """

    run_point: Callable[[Dict[str, Any], int], Any]
    index: int
    label: Hashable
    config: Dict[str, Any]
    seed: int


@dataclasses.dataclass
class ExecutorStats:
    """Transport accounting for one hub-served sweep.

    ``payload_bytes`` is the encoded size of the result payloads,
    ``wire_bytes`` the framed bytes that crossed worker sockets (both
    directions, headers included) and ``retries`` the task
    re-dispatches after a worker loss -- all free byproducts of serving
    the queue.
    """

    payload_bytes: int = 0
    wire_bytes: int = 0
    retries: int = 0


def default_parallelism(task_count: Optional[int] = None) -> int:
    """Worker count used when the caller asks for ``parallel=0``.

    Clamped to ``task_count`` when known: a four-point sweep on a
    64-core host should fork four workers, not 64 idle ones.
    """
    workers = max(1, os.cpu_count() or 1)
    if task_count is not None:
        workers = max(1, min(workers, task_count))
    return workers


@dataclasses.dataclass(frozen=True)
class PointTelemetry:
    """Per-point resource telemetry, measured where the point ran.

    ``peak_rss_kb`` is the *process* high-water mark (``ru_maxrss``), so
    under a reused worker it is an upper bound for the point, not an
    exact attribution.  ``events`` counts traced events and is zero
    unless the :data:`~repro.obs.tracer.TRACE_ENV` variable is set.
    ``worker`` and ``retries`` attribute a point to the hub worker that
    computed it and count how often it was re-dispatched after a worker
    loss; both stay at their defaults in process, where neither concept
    exists.
    """

    wall_s: float
    peak_rss_kb: int = 0
    events: int = 0
    worker: str = ""
    retries: int = 0


class TaskResult(NamedTuple):
    """One evaluated task, as the runner iterates it.

    ``payload`` is the point's return value, or the traceback text when
    ``ok`` is false.  ``blob`` is the payload's canonical
    :func:`~repro.exec.codec.encode_result` bytes when the transport
    already produced them (the hub path), so the cache write can skip
    re-encoding.
    """

    index: int
    ok: bool
    payload: Any
    telemetry: PointTelemetry
    blob: Optional[bytes] = None


def _peak_rss_kb() -> int:
    """The process's peak resident set size in kilobytes (0 if unknown)."""
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def _evaluate(task: PointTask) -> TaskResult:
    """Evaluate one point; never raises (failures are data).

    Raising inside a worker would surface in the parent stripped of the
    point's identity, so a failure comes back as ``ok=False`` with the
    traceback text as payload.  Either way the result carries the
    point's wall time and peak RSS; with
    :data:`~repro.obs.tracer.TRACE_ENV` set, the point runs under a
    fresh tracer and the telemetry also carries the traced-event count.
    """
    started = time.perf_counter()
    events = 0
    ok = True
    try:
        if _obs.env_trace_requested():
            with _obs.trace_run() as run_tracer:
                payload = task.run_point(task.config, task.seed)
                events = len(run_tracer.events)
            _obs.env_trace_write(task.label, run_tracer)
        else:
            payload = task.run_point(task.config, task.seed)
    except Exception:
        # KeyboardInterrupt/SystemExit propagate: a user interrupt must
        # abort the sweep, not masquerade as a failed point.
        ok, payload = False, traceback.format_exc()
    telemetry = PointTelemetry(
        wall_s=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(), events=events,
    )
    return TaskResult(task.index, ok, payload, telemetry)


def evaluate_in_process(tasks: List[PointTask]) -> Iterator[TaskResult]:
    """Evaluate every task in the calling process, in declaration order.

    No serialization happens at all; this is both the one-worker path
    and the fallback when worker processes cannot be started.
    """
    for task in tasks:
        yield _evaluate(task)


def _pool_context():
    """The ``multiprocessing`` context the local worker pool starts from.

    Prefers ``fork`` (cheap, inherits the imported package), then
    ``forkserver``, then ``spawn`` -- an explicit preference order
    rather than whatever the platform default happens to be.
    """
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def _payload_digest(blob: bytes) -> str:
    """Digest protecting one encoded payload in transit (crc32)."""
    return f"{zlib.crc32(blob):08x}"
