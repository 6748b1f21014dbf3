"""Benchmark-side span tracing: which layer did the host time go to?

Nothing in ``src/`` is edited and no ``repro.obs`` tracer is installed
(that would flip ``Network`` into its reference lane, i.e. measure a
different program).  Instead :func:`installed` temporarily replaces the
layers' *public* entry points -- the seams listed in :data:`SEAMS` and
the handful of callback seams below -- with wrappers that record a span
``(layer, name, start, end, parent)`` on a per-thread stack.

Attribution rule: a layer's **self time** is the duration of its spans
minus the part their child spans cover.  Private helpers are never
wrapped, so their time falls to the enclosing span's layer.  A callable
handed across a public seam (the ``fn`` of ``Simulator.schedule_at`` /
``LiveLoop.schedule``, the handler of ``Transport.register`` and
``CommunicationObject.set_handler``, a ``Future.add_callback`` callback,
a workload generator given to ``Process``) is attributed to the layer of
the module that defines it, because that is the layer the caller is
dispatching into; ``repro.sim.process`` counts as ``workload`` (it is
the resumption of a workload process).

Spans stay in memory (columnar arrays per thread) until :meth:`Tracer.
dump` writes them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.coherence.session import SessionState
from repro.coherence.trace import TraceRecorder
from repro.comm.endpoint import CommunicationObject
from repro.core.control import ControlObject
from repro.core.stub import Stub
from repro.exec import codec
from repro.faults.injector import FaultInjector
from repro.faults.transport import FaultableTransportMixin
from repro.net.network import Network
from repro.replication.client import ClientReplicationObject
from repro.replication.engine import StoreReplicationObject
from repro.runtime.live import LiveLoop, LiveNetwork
from repro.runtime.socket import SocketHub, SocketNetwork
from repro.runtime.wire import FrameChannel
from repro.sim.future import Future
from repro.sim.kernel import Simulator
from repro.web.document import WebDocument
from repro.web.webobject import Browser
from repro.workload.generator import ReaderWorkload, WriterWorkload

#: The ten layers host time is attributed to (the repo's packages).
LAYERS = (
    "workload", "core", "web", "replication", "coherence",
    "comm", "net", "faults", "sim", "runtime",
)

#: ``repro.<package>`` -> layer, for callables handed across a seam.
#: Packages not listed (``transport``, ``metrics``, ``naming`` ...) get no
#: span of their own: their time falls to the enclosing layer.
_PACKAGE_LAYER = {layer: layer for layer in LAYERS}
_PACKAGE_LAYER["exec"] = "runtime"  # exec.codec is the wire framing

#: Public methods replaced by plain span wrappers: (owner, names, layer).
SEAMS: Tuple[Tuple[Any, Tuple[str, ...], str], ...] = (
    (Simulator, ("run", "step"), "sim"),
    (Browser, ("read_page", "write_page", "append_to_page", "delete_page",
               "list_pages"), "core"),
    (Stub, ("invoke", "read", "write"), "core"),
    (ControlObject, ("invoke",), "core"),
    (WebDocument, ("read_page", "write_page", "append_to_page",
                   "delete_page", "list_pages", "apply", "touched_keys",
                   "missing_keys", "can_apply", "snapshot", "restore",
                   "partial_snapshot", "restore_partial"), "web"),
    (ClientReplicationObject, ("handle_invocation", "handle_message"),
     "replication"),
    (StoreReplicationObject, ("handle_message",), "replication"),
    (SessionState, ("mint_wid", "write_deps", "observe_write",
                    "read_requirement", "observe_read", "to_wire",
                    "wire_sized"), "coherence"),
    (TraceRecorder, ("record_apply", "record_install", "record_drop",
                     "record_write_issue", "record_write_ack",
                     "record_read"), "coherence"),
    (CommunicationObject, ("send", "multicast", "request", "reply"), "comm"),
    (Network, ("send", "multicast"), "net"),
    (LiveNetwork, ("send", "multicast"), "net"),
    (FaultInjector, ("start", "step", "cancel"), "faults"),
    (FaultableTransportMixin, ("partition", "heal", "crash_node",
                               "restart_node"), "faults"),
    (SocketNetwork, ("crash_node", "restart_node"), "faults"),
    (SocketHub, ("forward", "call"), "runtime"),
    (FrameChannel, ("send", "recv"), "runtime"),
    (codec, ("encode_result", "decode_result"), "runtime"),
)


class _ThreadSpans:
    """One thread's span stack, raw span columns and running totals."""

    __slots__ = ("name", "stack", "key", "parent", "start", "end",
                 "calls", "self_s")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open spans, innermost last: ``[span index, child seconds]``.
        self.stack: List[List[Any]] = []
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Dict[int, int] = defaultdict(int)
        self.self_s: Dict[int, float] = defaultdict(float)


class _SpanGenerator:
    """A workload generator whose every resumption is one span."""

    __slots__ = ("_generator", "_span", "_key")

    def __init__(self, generator: Any, span: Callable, key: int) -> None:
        self._generator = generator
        self._span = span
        self._key = key

    def send(self, value: Any) -> Any:
        """Resume the generator inside a ``workload`` span."""
        return self._span(self._key, self._generator.send, (value,), {})

    def throw(self, *exc: Any) -> Any:
        """Throw into the generator inside a ``workload`` span."""
        return self._span(self._key, self._generator.throw, exc, {})

    def close(self) -> None:
        """Close the underlying generator."""
        self._generator.close()


class Tracer:
    """Records spans; :func:`installed` routes the seams through it.

    ``clock`` is ``time.perf_counter`` for the single-threaded ``sim_*``
    workloads (wall time is CPU time there) and ``time.thread_time`` for
    ``socket_mixed``, where hub threads spend most of their wall time
    blocked in ``recv``/``wait`` and only CPU time says what a layer
    costs.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keys: List[Tuple[str, str]] = []
        self._key_ids: Dict[Tuple[str, str], int] = {}
        self._by_code: Dict[Any, Optional[int]] = {}
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        #: Totals at the last :meth:`mark`; :meth:`summary` reports the
        #: difference, i.e. only what the measured phase added.
        self._marked: Tuple[Dict[int, int], Dict[int, float]] = ({}, {})

    # -- keys -----------------------------------------------------------------

    def key(self, layer: str, name: str) -> int:
        """The id of span kind ``(layer, name)`` (registered on first use)."""
        pair = (layer, name)
        with self._lock:
            key = self._key_ids.get(pair)
            if key is None:
                key = self._key_ids[pair] = len(self.keys)
                self.keys.append(pair)
        return key

    def callback_key(self, fn: Callable[..., Any]) -> Optional[int]:
        """Span kind for a callable handed across a seam; ``None`` = no span.

        Keyed on the code object, which every closure instance and every
        bound method of one function shares.
        """
        if getattr(fn, "_perf_span", False):
            return None  # already a wrapped public method: it spans itself
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is None:
            return None
        try:
            return self._by_code[code]
        except KeyError:
            pass
        module = getattr(fn, "__module__", None) or ""
        parts = module.split(".")
        layer = None
        if module == "repro.sim.process":
            layer = "workload"
        elif len(parts) > 1 and parts[0] == "repro":
            layer = _PACKAGE_LAYER.get(parts[1])
        key = None
        if layer is not None:
            name = getattr(fn, "__qualname__", code.co_name)
            key = self.key(layer, name.replace(".<locals>", ""))
        self._by_code[code] = key
        return key

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
            return spans

    def span(self, key: int, fn: Callable[..., Any], args: tuple,
             kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span of kind ``key``."""
        spans = self._state()
        stack = spans.stack
        index = len(spans.key)
        spans.key.append(key)
        spans.parent.append(stack[-1][0] if stack else -1)
        spans.start.append(0.0)
        spans.end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        clock = self.clock
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = clock()
            stack.pop()
            duration = ended - started
            spans.start[index] = started
            spans.end[index] = ended
            spans.calls[key] += 1
            spans.self_s[key] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def fire(self, key: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Positional-only :meth:`span` (the shape scheduled events need)."""
        return self.span(key, fn, args, {})

    def wrap(self, layer: str, name: str,
             fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper that runs ``fn`` as a ``(layer, name)`` span."""
        key = self.key(layer, name)
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return span(key, fn, args, kwargs)

        wrapper._perf_span = True
        return wrapper

    def wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` spanning under its defining module's layer, if it has one."""
        key = self.callback_key(fn)
        if key is None:
            return fn
        return functools.partial(self.fire, key, fn)

    # -- results --------------------------------------------------------------

    def _totals(self) -> Tuple[Dict[int, int], Dict[int, float]]:
        calls: Dict[int, int] = defaultdict(int)
        self_s: Dict[int, float] = defaultdict(float)
        for spans in list(self._threads):
            for key, count in list(spans.calls.items()):
                calls[key] += count
            for key, seconds in list(spans.self_s.items()):
                self_s[key] += seconds
        return calls, self_s

    def mark(self) -> None:
        """Start of the measured phase: set-up and warm-up spans recorded
        so far stay in the raw dump but drop out of :meth:`summary`."""
        self._marked = self._totals()

    def summary(self) -> Dict[str, Any]:
        """Per-layer and per-span-kind calls and self seconds since the
        last :meth:`mark`, over all threads."""
        calls, self_s = self._totals()
        for key, count in self._marked[0].items():
            calls[key] -= count
        for key, seconds in self._marked[1].items():
            self_s[key] -= seconds
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        kinds = []
        for key, (layer, name) in enumerate(self.keys):
            if not calls.get(key):
                continue
            layers[layer]["calls"] += calls[key]
            layers[layer]["self_s"] += self_s[key]
            kinds.append({"layer": layer, "name": name,
                          "calls": calls[key], "self_s": self_s[key]})
        total = sum(entry["self_s"] for entry in layers.values())
        for entry in layers.values():
            entry["self_share"] = entry["self_s"] / total if total else 0.0
        kinds.sort(key=lambda kind: -kind["self_s"])
        return {
            "self_total_s": total,
            "span_count": sum(calls.values()),
            "layers": layers,
            "kinds": kinds,
        }

    def dump(self, max_spans: int) -> Dict[str, Any]:
        """The raw spans as plain columns (at most ``max_spans`` a thread).

        Columns are parallel arrays: ``key`` indexes ``keys``, ``parent``
        is the index of the enclosing span in the same thread (-1 for a
        root); times are seconds on the tracer's clock.
        """
        threads = []
        for spans in list(self._threads):
            count = min(len(spans.key), max_spans)
            threads.append({
                "thread": spans.name,
                "spans_recorded": len(spans.key),
                "spans_written": count,
                "key": spans.key[:count].tolist(),
                "parent": spans.parent[:count].tolist(),
                "start": spans.start[:count].tolist(),
                "end": spans.end[:count].tolist(),
            })
        return {
            "keys": [list(pair) for pair in self.keys],
            "threads": threads,
        }


# -- seam installation ---------------------------------------------------------


def _patch(undo: List[Tuple[Any, str, Any]], owner: Any, name: str,
           replacement: Any) -> None:
    """Replace ``owner.name`` remembering how to put the original back.

    ``owner.__dict__`` is consulted so an inherited method is restored by
    *deleting* the override rather than pinning a copy on the subclass.
    """
    undo.append((owner, name, vars(owner).get(name)))
    setattr(owner, name, replacement)


def _install_callback_seams(tracer: Tracer,
                            undo: List[Tuple[Any, str, Any]]) -> None:
    """Seams whose *argument* is the thing to attribute."""
    span = tracer.span
    fire = tracer.fire
    callback_key = tracer.callback_key

    schedule_at = Simulator.schedule_at
    schedule_key = tracer.key("sim", "Simulator.schedule_at")

    def traced_schedule_at(self, time, fn, *args, daemon=False):
        key = callback_key(fn)
        if key is not None:
            args = (key, fn) + args
            fn = fire
        return span(schedule_key, schedule_at, (self, time, fn) + args,
                    {"daemon": daemon})

    _patch(undo, Simulator, "schedule_at", traced_schedule_at)

    live_schedule = LiveLoop.schedule
    live_key = tracer.key("runtime", "LiveLoop.schedule")

    def traced_live_schedule(self, delay, fn, *args, daemon=False):
        key = callback_key(fn)
        if key is not None:
            args = (key, fn) + args
            fn = fire
        return span(live_key, live_schedule, (self, delay, fn) + args,
                    {"daemon": daemon})

    _patch(undo, LiveLoop, "schedule", traced_live_schedule)

    add_callback = Future.add_callback

    def traced_add_callback(self, fn):
        return add_callback(self, tracer.wrap_callback(fn))

    _patch(undo, Future, "add_callback", traced_add_callback)

    for network in (Network, LiveNetwork):
        register = network.register

        def traced_register(self, node, handler, _register=register):
            return _register(self, node, tracer.wrap_callback(handler))

        _patch(undo, network, "register", traced_register)

    set_handler = CommunicationObject.set_handler

    def traced_set_handler(self, handler):
        return set_handler(self, tracer.wrap_callback(handler))

    _patch(undo, CommunicationObject, "set_handler", traced_set_handler)

    for workload in (ReaderWorkload, WriterWorkload):
        run = workload.run
        key = tracer.key("workload", f"{workload.__name__}.run")

        def traced_run(self, _run=run, _key=key):
            return _SpanGenerator(_run(self), span, _key)

        _patch(undo, workload, "run", traced_run)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route every seam through ``tracer`` for the ``with`` body.

    Install *before* building the deployment: handlers registered at
    build time are wrapped as they are registered.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for owner, names, layer in SEAMS:
            label = getattr(owner, "__name__", "codec").rsplit(".", 1)[-1]
            for name in names:
                _patch(undo, owner, name,
                       tracer.wrap(layer, f"{label}.{name}",
                                   getattr(owner, name)))
        _install_callback_seams(tracer, undo)
        yield tracer
    finally:
        _restore(undo)


def _restore(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, name, original in reversed(undo):
        if original is None:
            delattr(owner, name)
        else:
            setattr(owner, name, original)


@contextlib.contextmanager
def slowed(seam: str, micros: float) -> Iterator[None]:
    """Busy-wait ``micros`` microseconds before every call of ``seam``.

    ``seam`` is ``"<layer>.<method>"`` naming one :data:`SEAMS` entry of
    the in-simulator stack (``"net.send"`` is ``Network.send``).  Used by
    the smoke test to prove that a slowed layer trips the gate; install
    it *outside* :func:`installed` so the tracer sees the slowed method.
    """
    layer, _, method = seam.partition(".")
    owner = next(
        (owner for owner, names, seam_layer in SEAMS
         if seam_layer == layer and method in names),
        None,
    )
    if owner is None:
        raise ValueError(f"no seam {seam!r}; see benchmarks/perf/trace.py")
    original = getattr(owner, method)
    delay = micros * 1e-6
    clock = time.perf_counter

    @functools.wraps(original)
    def slow(*args: Any, **kwargs: Any) -> Any:
        deadline = clock() + delay
        while clock() < deadline:
            pass
        return original(*args, **kwargs)

    undo: List[Tuple[Any, str, Any]] = []
    _patch(undo, owner, method, slow)
    try:
        yield
    finally:
        _restore(undo)
