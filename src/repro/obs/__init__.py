"""Unified observability: tracing and run-manifest telemetry.

The two pillars, each usable on its own:

- :mod:`repro.obs.tracer` -- zero-cost-when-disabled structured event
  tracing.  Hook sites across the stack (sim kernel, both network
  transports, the four replication-engine components, the fault
  injector) emit events only while :func:`~repro.obs.tracer.trace_run`
  has a :class:`~repro.coherence.trace.TraceRecorder` in the
  module-level :data:`~repro.obs.tracer.ACTIVE` slot; with the slot
  empty the hot paths pay one ``is not None`` check.  Timestamps come
  from the caller's :class:`~repro.transport.interface.Clock`, so a
  simulated run's trace is deterministic (and golden-pinnable) while a
  live run's trace carries wall-clock seconds.
- :mod:`repro.obs.manifest` -- per-point sweep telemetry (wall time,
  peak RSS, cache hit/miss, executor name, traced-event count) appended
  as JSONL under the result-cache directory by
  :func:`~repro.exec.run_sweep`, surfaced by ``python -m repro.obs``
  (``summary`` / ``trace`` / ``slow``) and by the results book's
  opt-in run-health appendix.
"""

from repro.obs.manifest import (
    MANIFEST_NAME,
    RunManifest,
    load_manifest,
    summarize_manifest,
    validate_manifest,
)
from repro.obs.tracer import TRACE_ENV, events_jsonl, trace_run

__all__ = [
    "MANIFEST_NAME",
    "RunManifest",
    "TRACE_ENV",
    "events_jsonl",
    "load_manifest",
    "summarize_manifest",
    "trace_run",
    "validate_manifest",
]
