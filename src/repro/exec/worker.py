"""Sweep worker: :func:`serve`, also ``python -m repro.exec.worker``.

One worker of the sweep hub
(:class:`~repro.exec.distributed.DistributedExecutor`): the hub forks
its local workers straight into :func:`serve`, and the command line
runs the same function on any host that can reach the hub's address.
The worker connects to its hub over the framed wire layer
(:mod:`repro.runtime.wire`, retrying with backoff so start order never
matters), announces itself with a ``hello`` frame, and then serves a
*pull-based* loop:

- when it is idle it sends a ``next`` frame; the hub answers
  with one ``task`` (function reference + config + derived seed), a
  ``wait`` (nothing dispatchable right now -- back off and ask again),
  or ``bye`` (the sweep is complete);
- each task is resolved to its module-level point function, evaluated
  through the same :func:`~repro.exec.backends._evaluate` the
  in-process path uses (so ``REPRO_TRACE`` tracing and telemetry behave
  identically), codec-encoded, and streamed back as a ``result`` frame
  whose payload bytes are digest-protected -- the hub writes them into
  the :class:`~repro.exec.cache.ResultCache` without re-encoding.  A
  result too large for one frame comes back as that point's failure,
  naming its size and the limit; the worker keeps serving;
- a daemon thread beats the hub's heartbeat registry so a hung worker
  is noticed (a SIGKILLed one is noticed faster, by its socket EOF).

Because point functions are pure and seeds derive from configs, a
worker is pure mechanism: any task can run on any worker, any number of
times, and the bytes that come back are identical.  That is what lets
the hub requeue in-flight tasks of a lost worker and still produce a
result tree byte-identical to the in-process path's.

A worker runs one task at a time on its own thread: ask, evaluate,
answer, ask again.  To use more cores, run one worker per core -- that
is exactly what the hub does with its local workers.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import os
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.exec.backends import PointTask, _evaluate, _payload_digest
from repro.exec.codec import encode_result
from repro.runtime.wire import (
    Address,
    FrameChannel,
    FrameTooLarge,
    WireError,
    connect_with_backoff,
    parse_address,
)

#: Default liveness beat interval (the hub TTL is several multiples).
HEARTBEAT_INTERVAL = 0.25

#: Set in every worker process.  The hub refuses to start inside a
#: process where it is set: a sweep script without an
#: ``if __name__ == "__main__"`` guard would otherwise re-run its own
#: sweep on import (the same recursion multiprocessing's ``spawn``
#: start method guards against), forking workers without bound.
WORKER_ENV = "REPRO_IN_SWEEP_WORKER"


def function_reference(fn: Callable) -> Dict[str, str]:
    """The wire form of a point function: import it, don't pickle it.

    A task must be self-contained, so the function travels as
    ``module:qualname`` (plus its source file, the fallback when the
    module name is unimportable on the worker -- e.g. a sweep script
    run as ``__main__``).  Closures and locally defined functions are
    rejected up front: they cannot be imported by reference anywhere.
    """
    qualname = getattr(fn, "__qualname__", "") or getattr(fn, "__name__", "")
    if not qualname or "<locals>" in qualname:
        raise ValueError(
            f"parallel execution needs a module-level point function, "
            f"got {fn!r}"
        )
    try:
        source = inspect.getsourcefile(fn) or ""
    except TypeError:
        source = ""
    return {
        "module": getattr(fn, "__module__", "") or "",
        "qualname": qualname,
        "file": source,
    }


#: Modules loaded from a source file (``__main__`` fallback), by path.
_FILE_MODULES: Dict[str, Any] = {}


def load_function(ref: Dict[str, str]) -> Callable:
    """Resolve a :func:`function_reference` back to the callable.

    Regular module paths import normally; a function whose recorded
    module cannot be imported (typically ``__main__``) is loaded from
    its source file under a synthetic module name, cached per path.
    """
    module_name = ref.get("module", "")
    module = None
    if module_name and module_name != "__main__":
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
    if module is None:
        path = ref.get("file", "")
        if not path:
            raise ImportError(
                f"cannot import point-function module {module_name!r} "
                "and no source file was provided"
            )
        module = _FILE_MODULES.get(path)
        if module is None:
            synthetic = f"_repro_worker_{abs(hash(path)):x}"
            spec = importlib.util.spec_from_file_location(synthetic, path)
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load point function from {path!r}")
            module = importlib.util.module_from_spec(spec)
            # Registered so by-reference pickling inside the point
            # function (rare, but legal) can resolve the module.
            sys.modules[synthetic] = module
            spec.loader.exec_module(module)
            _FILE_MODULES[path] = module
    obj: Any = module
    for part in ref["qualname"].split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref['qualname']!r} in {module!r} is not callable")
    return obj


class WorkerRuntime:
    """One daemon: hello/welcome handshake, pull loop, result streaming."""

    def __init__(
        self,
        channel: FrameChannel,
        name: str,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
    ) -> None:
        self.channel = channel
        self.name = name
        self.heartbeat_interval = heartbeat_interval
        self._stop_heartbeat = threading.Event()
        self._stopping = False

    # -- handshake -----------------------------------------------------------

    def _handshake(self) -> bool:
        """Register with the hub; adopt its import paths."""
        self.channel.send("hello", node=self.name, pid=os.getpid())
        frame = self.channel.recv()
        if frame is None or frame[0] != "welcome":
            return False
        for path in reversed(frame[1].get("paths") or []):
            # The hub's sys.path, so point functions defined in its
            # scripts/tests resolve by module name here too.
            if path and path not in sys.path:
                sys.path.insert(0, path)
        return True

    # -- requesting ----------------------------------------------------------

    def _request(self) -> None:
        """Ask the hub for one task."""
        try:
            self.channel.send("next", node=self.name)
        except WireError:
            self._stopping = True

    # -- task execution ------------------------------------------------------

    def _execute(self, body: Dict[str, Any]) -> None:
        """Evaluate one task and stream its result frame back."""
        index = int(body["index"])
        try:
            fn = load_function(body["fn"])
        except BaseException:
            self._send_result(index, False, error=traceback.format_exc())
            return
        task = PointTask(
            run_point=fn,
            index=index,
            label=body.get("label"),
            config=body["config"],
            seed=int(body["seed"]),
        )
        _, ok, payload, telemetry, _ = _evaluate(task)
        blob = b""
        if ok:
            try:
                blob = encode_result(payload)
            except Exception:
                ok, payload = False, traceback.format_exc()
        self._send_result(
            index, ok, blob=blob, error="" if ok else str(payload),
            wall_s=telemetry.wall_s, peak_rss_kb=telemetry.peak_rss_kb,
            events=telemetry.events,
        )

    def _send_result(
        self,
        index: int,
        ok: bool,
        blob: bytes = b"",
        error: str = "",
        wall_s: float = 0.0,
        peak_rss_kb: int = 0,
        events: int = 0,
    ) -> None:
        body: Dict[str, Any] = {
            "index": index,
            "wall_s": float(wall_s),
            "peak_rss_kb": int(peak_rss_kb),
            "events": int(events),
        }
        outcome: Dict[str, Any] = (
            {"ok": True, "blob": blob, "digest": _payload_digest(blob)}
            if ok else {"ok": False, "error": error}
        )
        try:
            try:
                self.channel.send("result", **body, **outcome)
            except FrameTooLarge as exc:
                # The peer is fine, this result is not: report it as the
                # point's failure and keep serving.
                self.channel.send(
                    "result", **body, ok=False,
                    error=f"encoded result of {len(blob)} bytes does not "
                          f"fit one wire frame: {exc}",
                )
        except WireError:
            self._stopping = True

    # -- threads -------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            try:
                self.channel.send("heartbeat", node=self.name)
            except WireError:
                return

    def run(self) -> int:
        """Serve the pull loop until the hub says ``bye`` (or vanishes)."""
        if not self._handshake():
            return 1
        beat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-worker-beat-{self.name}",
            daemon=True,
        )
        beat.start()
        try:
            self._request()
            while not self._stopping:
                frame = self.channel.recv()
                if frame is None:
                    break
                kind, body = frame
                if kind == "task":
                    self._execute(body)
                    self._request()
                elif kind == "wait":
                    # Back off for the hub-suggested delay, then re-ask
                    # -- unless the hub speaks first (``bye``: the sweep
                    # finished while this worker had nothing to do).
                    if not (self.channel.buffered or self.channel.poll(
                            float(body.get("delay", 0.05)))):
                        self._request()
                elif kind == "bye":
                    break
                # Unknown frames are ignored (forward compatibility).
        finally:
            self._stop_heartbeat.set()
            self.channel.close()
        return 0


def serve(
    address: Address,
    name: str,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    connect_timeout: float = 20.0,
) -> int:
    """Connect to the hub at ``address`` and serve tasks until ``bye``."""
    os.environ[WORKER_ENV] = "1"
    try:
        sock = connect_with_backoff(address, timeout=connect_timeout)
    except WireError as exc:
        print(f"repro.exec.worker {name}: {exc}", file=sys.stderr)
        return 1
    runtime = WorkerRuntime(
        FrameChannel(sock), name, heartbeat_interval=heartbeat_interval,
    )
    return runtime.run()


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and :func:`serve`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description="Sweep worker for a hub on another host "
                    "(REPRO_HUB_BIND).",
    )
    parser.add_argument("--hub", required=True,
                        help="hub address (unix:<path> or tcp:<host>:<port>)")
    parser.add_argument("--name", required=True, help="this worker's name")
    parser.add_argument("--heartbeat-interval", type=float,
                        default=HEARTBEAT_INTERVAL, metavar="SECONDS",
                        help=f"liveness beat period (default "
                             f"{HEARTBEAT_INTERVAL})")
    parser.add_argument("--connect-timeout", type=float, default=20.0,
                        metavar="SECONDS",
                        help="give up connecting to the hub after this long "
                             "(default 20)")
    args = parser.parse_args(argv)
    return serve(
        parse_address(args.hub), args.name,
        heartbeat_interval=args.heartbeat_interval,
        connect_timeout=args.connect_timeout,
    )


if __name__ == "__main__":
    sys.exit(main())
