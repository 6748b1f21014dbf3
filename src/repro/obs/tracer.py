"""Structured event tracing, zero-cost when disabled.

One module-level slot, :data:`ACTIVE`, holds the installed
:class:`~repro.coherence.trace.TraceRecorder` (or ``None``).  Every hook
site in the stack guards its emission with ``if tracer.ACTIVE is not
None`` -- one attribute load and an identity check -- so an untraced
run pays essentially nothing on its hot paths (the bench gate in
``benchmarks/bench_obs.py`` pins this below 2%).

Timestamps are *passed in* by the hook site from its own
:class:`~repro.transport.interface.Clock`: virtual seconds under the
simulator, wall-clock seconds under the live loop.  The tracer never
reads a clock itself, which is what makes a seeded simulated run's
trace fully deterministic -- and therefore golden-pinnable and
bit-identical across sweep executors (the trace is built inside the
worker evaluating the point, wherever that worker runs).

Always check the live slot through the module (``tracer.ACTIVE``), not
through a ``from``-import -- the binding changes inside :func:`trace_run`.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from repro.coherence.trace import TraceRecorder

#: Environment variable enabling tracing inside sweep workers.  ``"1"``
#: (or any non-path truthy value) traces each point and records the
#: event count in the run manifest; a directory path additionally
#: writes one ``trace-<label>.jsonl`` file per point under it.
TRACE_ENV = "REPRO_TRACE"

#: The installed recorder; ``None`` means tracing is disabled and every
#: hook site short-circuits.  Mutate only through :func:`trace_run`.
ACTIVE: Optional[TraceRecorder] = None


def events_jsonl(events: List[Dict[str, Any]]) -> str:
    """Render a list of event dicts as canonical JSONL.

    Sorted keys and compact separators make the bytes a pure function
    of the event data -- the representation the golden trace test pins.
    """
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


@contextlib.contextmanager
def trace_run() -> Iterator[TraceRecorder]:
    """Trace the enclosed block into a fresh :class:`TraceRecorder`.

    The previously installed recorder (usually ``None``) is restored on
    exit, so nested scopes compose: the innermost recorder owns the
    events emitted while it is active.
    """
    # Imported here: repro.coherence imports modules whose hook sites
    # import this one, so a top-level import would close a cycle.
    from repro.coherence.trace import TraceRecorder

    global ACTIVE
    recorder = TraceRecorder()
    previous, ACTIVE = ACTIVE, recorder
    try:
        yield recorder
    finally:
        ACTIVE = previous


def env_trace_requested() -> bool:
    """Whether the :data:`TRACE_ENV` variable asks workers to trace."""
    return bool(os.environ.get(TRACE_ENV))


def env_trace_write(label: Any, tracer: TraceRecorder) -> None:
    """Persist one point's trace if :data:`TRACE_ENV` names a directory.

    With the variable set to a plain flag (``"1"``), only the event
    count is kept (it travels in the run manifest); a directory value
    gets one ``trace-<label>.jsonl`` per point.  Best-effort: telemetry
    must never fail a sweep point.
    """
    target = os.environ.get(TRACE_ENV, "")
    if target in ("", "0", "1", "true", "false"):
        return
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in str(label)
    )
    try:
        os.makedirs(target, exist_ok=True)
        path = os.path.join(target, f"trace-{safe}.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(events_jsonl(tracer.events))
    except OSError:
        pass
