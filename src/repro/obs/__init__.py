"""Unified observability: tracing, metrics, and run-manifest telemetry.

The three pillars, each usable on its own:

- :mod:`repro.obs.tracer` -- a zero-cost-when-disabled structured event
  tracer.  Hook sites across the stack (sim kernel, both network
  transports, the four replication-engine components, the fault
  injector) emit events only while a tracer is installed in the
  module-level :data:`~repro.obs.tracer.ACTIVE` slot; with the slot
  empty the hot paths pay one ``is not None`` check.  Timestamps come
  from the caller's :class:`~repro.transport.interface.Clock`, so a
  simulated run's trace is deterministic (and golden-pinnable) while a
  live run's trace carries wall-clock seconds.
- :mod:`repro.obs.metrics` -- a registry of named counters, gauges and
  histograms whose snapshots are plain data: they ride the sweep result
  transport (:mod:`repro.exec.codec`) and land in the
  :class:`~repro.exec.ResultCache` next to sweep payloads.  The network
  transports' :class:`~repro.net.network.NetworkStats` counters mirror
  into one of these registries behind a compatibility shim.
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
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    ACTIVE,
    TRACE_ENV,
    NullTracer,
    RecordingTracer,
    Tracer,
    enabled,
    events_jsonl,
    install,
    trace_run,
    uninstall,
)

__all__ = [
    "ACTIVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_NAME",
    "MetricsRegistry",
    "NullTracer",
    "RecordingTracer",
    "RunManifest",
    "TRACE_ENV",
    "Tracer",
    "enabled",
    "events_jsonl",
    "install",
    "load_manifest",
    "summarize_manifest",
    "trace_run",
    "uninstall",
    "validate_manifest",
]
