"""The parallel sweep path: a pull hub serving forked local workers.

``run_sweep(spec, parallel=N)`` with more than one worker serves the
pending points from a *pull-based work queue* over the framed wire
layer (:mod:`repro.runtime.wire`); workers request the next task
whenever they have a free slot.  Pull dispatch is natural work-stealing
-- a slow point occupies exactly one worker while every other worker
keeps draining the queue, so stragglers cannot stall the sweep.

Layers, mirroring the queue-based-load-leveling / retry-with-backoff
patterns the ROADMAP names:

- :class:`SweepHub` is the pure state machine: pending queue,
  per-worker assignments, bounded retry-with-backoff on worker loss,
  duplicate-result suppression.  It never touches a socket, which is
  what makes the wire protocol unit-testable.
- :class:`DistributedExecutor` is the I/O shell: the store hub's
  :class:`~repro.runtime.server.FrameServer` on a ``LiveLoop`` of its
  own (a Unix socket in a throwaway run directory, or the ``unix:``/
  ``tcp:`` address named by ``REPRO_HUB_BIND`` so daemons on other hosts
  can join) with handlers for ``next``/``result``/``bye``, and the local
  workers, forked before that loop starts -- each runs the same
  :func:`repro.exec.worker.serve` loop that ``python -m repro.exec.worker``
  runs.  It starts no thread of its own: the caller blocks on the queue
  the ``result`` handler fills and streams results to the runner.

Determinism is inherited, not engineered: point functions are pure and
seeds derive from configs, so any worker may compute any point -- even
twice, when a presumed-dead worker turns out to be merely slow -- and
the codec bytes that come back are identical.  Results therefore land
in the :class:`~repro.exec.cache.ResultCache` byte-identical to the
in-process path's, regardless of worker count, completion order, or
mid-sweep worker crashes (the parity goldens pin this).

Worker loss is detected two ways: the worker's socket EOF (instant, the
SIGKILL path) and heartbeat expiry (a hung-but-connected worker).
Either way its in-flight tasks are requeued with exponential backoff,
at most :attr:`DistributedExecutor.max_retries` times per task before
the point is reported as failed.
"""

from __future__ import annotations

import os
import queue
import shutil
import socket
import sys
import tempfile
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.exec.backends import (
    ExecutorStats,
    PointTask,
    PointTelemetry,
    TaskResult,
    _payload_digest,
    _pool_context,
    evaluate_in_process,
)
from repro.exec.codec import CodecError, decode_result
from repro.exec.worker import WORKER_ENV, function_reference, serve
from repro.runtime.live import LiveLoop
from repro.runtime.server import FrameServer
from repro.runtime.wire import (
    Address,
    FrameChannel,
    WireError,
    parse_address,
)

#: Environment variable naming the hub bind address (``unix:<path>`` or
#: ``tcp:<host>:<port>``) for multi-host sweeps; unset means a private
#: Unix socket that only the local workers know.
HUB_BIND_ENV = "REPRO_HUB_BIND"

#: How long shutdown waits for a worker that was told ``bye`` (and for
#: the hub's own threads) before it stops waiting politely.
SHUTDOWN_GRACE = 2.0

#: Ceiling of the exponential backoff before a lost point is re-served.
RETRY_MAX_DELAY = 1.0

#: How long a sweep with no connected worker waits before it gives up.
WORKER_TIMEOUT = 60.0


def _connect_address(address: Address) -> Address:
    """The address local workers should *connect* to.

    A hub bound to the TCP wildcard is reachable locally via loopback;
    everything else is used as bound.
    """
    if isinstance(address, tuple) and address[0] in ("", "0.0.0.0", "::"):
        return ("127.0.0.1", address[1])
    return address


def _local_worker(address: Address, name: str,
                  inherited: Optional[socket.socket]) -> None:
    """Body of one local worker process."""
    if inherited is not None:
        # fork copied the hub's listener; only the hub accepts on it.
        inherited.close()
    sys.exit(serve(address, name))


class SweepHub:
    """The hub's dispatch state machine (no I/O, fully lock-guarded).

    Tracks the pending queue, per-worker in-flight assignments, per-task
    attempt counts and retry backoff deadlines; produces the reply for
    every ``next`` request and absorbs every ``result``/loss event.
    """

    def __init__(
        self,
        tasks: List[PointTask],
        max_retries: int = 3,
        retry_base_delay: float = 0.05,
    ) -> None:
        self.tasks: Dict[int, PointTask] = {t.index: t for t in tasks}
        self.max_retries = max(0, int(max_retries))
        self.retry_base_delay = retry_base_delay
        self.queue: deque = deque(sorted(self.tasks))
        self.not_before: Dict[int, float] = {}
        self.attempts: Dict[int, int] = {i: 0 for i in self.tasks}
        self.assigned: Dict[str, Set[int]] = {}
        self.completed: Set[int] = set()
        self.lost: Set[str] = set()
        # Resolved before anything starts: a closure or local function
        # cannot be imported by reference on any worker.
        self._references = {
            fn: function_reference(fn)
            for fn in {task.run_point for task in tasks}
        }
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every task delivered (computed, or failed out of retries)."""
        with self._lock:
            return len(self.completed) == len(self.tasks)

    def inflight(self) -> Dict[str, List[int]]:
        """Worker name -> sorted in-flight task indices (for tests/kill)."""
        with self._lock:
            return {
                name: sorted(indices)
                for name, indices in self.assigned.items() if indices
            }

    # -- protocol events -----------------------------------------------------

    def register(self, name: str) -> None:
        """A worker said hello (re-registration replaces the old entry)."""
        with self._lock:
            self.lost.discard(name)
            self.assigned.setdefault(name, set())

    def next_task(self, name: str, now: float
                  ) -> Tuple[str, Dict[str, Any]]:
        """Answer one ``next`` request: ``task``, ``wait`` or ``bye``."""
        with self._lock:
            if name in self.lost:
                # The registry declared this worker dead and its tasks
                # were requeued; a zombie asking for more work is told
                # to go away rather than silently re-admitted.
                return "bye", {}
            if len(self.completed) == len(self.tasks):
                return "bye", {}
            soonest: Optional[float] = None
            for _ in range(len(self.queue)):
                index = self.queue.popleft()
                if index in self.completed:
                    continue  # stale entry left by a duplicate result
                deadline = self.not_before.get(index, 0.0)
                if deadline > now:
                    self.queue.append(index)
                    soonest = (deadline if soonest is None
                               else min(soonest, deadline))
                    continue
                self.assigned.setdefault(name, set()).add(index)
                task = self.tasks[index]
                return "task", {
                    "index": index,
                    "label": task.label,
                    "config": task.config,
                    "seed": task.seed,
                    "fn": self._references[task.run_point],
                    "attempt": self.attempts[index],
                }
            delay = 0.05 if soonest is None else max(0.01, soonest - now)
            return "wait", {"delay": round(min(delay, 0.25), 4)}

    def complete(self, name: str, body: Dict[str, Any]
                 ) -> Optional[TaskResult]:
        """Absorb one ``result`` frame; ``None`` for duplicates.

        The returned result carries the canonical codec bytes next to
        the decoded payload (for the cache's no-re-encode path).  A torn
        blob (digest mismatch) or undecodable payload raises
        :class:`~repro.exec.codec.CodecError`; the caller treats the
        worker as faulty and requeues, exactly like a connection loss.
        """
        index = int(body["index"])
        ok = bool(body.get("ok"))
        blob: Optional[bytes] = None
        payload: Any
        if ok:
            blob = bytes(body.get("blob") or b"")
            if _payload_digest(blob) != body.get("digest"):
                raise CodecError(
                    f"task {index}: result payload digest mismatch from "
                    f"worker {name!r}"
                )
            payload = decode_result(blob)
        else:
            payload = str(body.get("error", ""))
        with self._lock:
            if index not in self.tasks or index in self.completed:
                return None  # duplicate after a spurious requeue
            self.completed.add(index)
            self.assigned.get(name, set()).discard(index)
            retries = self.attempts[index]
        telemetry = PointTelemetry(
            wall_s=float(body.get("wall_s", 0.0)),
            peak_rss_kb=int(body.get("peak_rss_kb", 0)),
            events=int(body.get("events", 0)),
            worker=name,
            retries=retries,
        )
        return TaskResult(index, ok, payload, telemetry, blob)

    def lose(self, name: str, now: float
             ) -> Tuple[List[TaskResult], int]:
        """A worker died: requeue its in-flight tasks with backoff.

        Returns ``(failure results, requeued count)`` -- failures are
        tasks whose retry budget is exhausted; they complete the sweep
        as attributable point failures rather than hanging it.
        """
        failures: List[TaskResult] = []
        requeued = 0
        with self._lock:
            if name in self.lost:
                return [], 0
            self.lost.add(name)
            indices = sorted(self.assigned.pop(name, ()))
            for index in indices:
                if index in self.completed:
                    continue
                self.attempts[index] += 1
                if self.attempts[index] > self.max_retries:
                    self.completed.add(index)
                    label = self.tasks[index].label
                    telemetry = PointTelemetry(
                        wall_s=0.0, worker=name,
                        retries=self.attempts[index] - 1,
                    )
                    failures.append(TaskResult(
                        index, False,
                        f"point {label!r} lost with worker {name!r}; "
                        f"{self.max_retries} retries exhausted",
                        telemetry,
                    ))
                else:
                    delay = min(
                        self.retry_base_delay
                        * (2 ** (self.attempts[index] - 1)),
                        RETRY_MAX_DELAY,
                    )
                    self.not_before[index] = now + delay
                    self.queue.append(index)
                    requeued += 1
        return failures, requeued


class DistributedExecutor:
    """Serve a sweep's points to worker processes over the wire layer.

    The hub binds a private Unix socket in a throwaway run directory --
    or the address in ``REPRO_HUB_BIND``, where externally launched
    ``python -m repro.exec.worker`` daemons may join -- and starts the
    requested number of local workers either way, so a sweep never sits
    waiting for remote workers that do not come.

    Transport accounting is always on: ``stats.wire_bytes`` (framed
    socket bytes, both directions) and ``stats.retries`` (task
    re-dispatches after worker loss); per-worker attribution rides each
    result's :class:`~repro.exec.backends.PointTelemetry`.
    """

    #: Manifest/error name of this path.
    name = "distributed"

    def __init__(
        self,
        max_retries: int = 3,
        retry_base_delay: float = 0.05,
        heartbeat_ttl: float = 2.0,
    ) -> None:
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.heartbeat_ttl = heartbeat_ttl
        self.stats = ExecutorStats()
        # Per-run state (rebuilt by _serve).
        self._hub: Optional[SweepHub] = None
        self._server: Optional[FrameServer] = None
        self._procs: Dict[str, Any] = {}

    # -- run -----------------------------------------------------------------

    def run(self, tasks: List[PointTask], workers: int = 1
            ) -> Iterator[TaskResult]:
        """Serve the sweep's work queue; yield results as they land.

        Results stream in completion order (the runner reassembles by
        index), so the caller caches each one while later points are
        still computing and peak memory stays flat over a large sweep.
        """
        if os.environ.get(WORKER_ENV):
            # A worker resolving a point function imports the sweep
            # script's module; without this refusal an unguarded script
            # would re-run its sweep on import, forking without bound.
            raise RuntimeError(
                "refusing to start a parallel sweep inside a sweep "
                "worker; put the sweep behind 'if __name__ == "
                "\"__main__\":' in the script that defines it"
            )
        self.stats = ExecutorStats()
        if not tasks:
            return iter(())
        return self._serve(list(tasks), max(1, min(workers, len(tasks))))

    # -- test/kill introspection ---------------------------------------------

    def inflight(self) -> Dict[str, List[int]]:
        """Worker name -> in-flight task indices (empty when not running)."""
        hub = self._hub
        return hub.inflight() if hub is not None else {}

    def worker_pid(self, name: str) -> int:
        """PID of a running sweep's local worker (KeyError when unknown)."""
        return self._procs[name].pid

    # -- serving -------------------------------------------------------------

    def _serve(self, tasks: List[PointTask], spawn: int
               ) -> Iterator[TaskResult]:
        hub = SweepHub(tasks, max_retries=self.max_retries,
                       retry_base_delay=self.retry_base_delay)
        #: Finished points -- or the exception that ends the sweep.
        results: "queue.Queue[Any]" = queue.Queue()
        run_dir = tempfile.mkdtemp(prefix="repro-sweep-hub-")
        bind = os.environ.get(HUB_BIND_ENV)
        loop = LiveLoop()
        state = {
            "last_progress": time.monotonic(),
            "respawns": spawn,  # replacement budget for dead local workers
        }
        context = _pool_context()
        procs = self._procs = {}
        self._hub = hub

        def welcome(name: str) -> Dict[str, Any]:
            hub.register(name)
            state["last_progress"] = time.monotonic()
            return {"paths": [p or os.getcwd() for p in sys.path]}

        def lose_worker(name: str) -> None:
            failures, requeued = hub.lose(name, time.monotonic())
            self.stats.retries += requeued
            for result in failures:
                results.put(result)

        def on_next(channel: FrameChannel, _body: Dict[str, Any]) -> None:
            kind, body = hub.next_task(channel.peer, time.monotonic())
            server.send(channel, kind, **body)

        def on_result(channel: FrameChannel, body: Dict[str, Any]) -> None:
            # A torn or malformed result raises: the server drops the
            # worker like a dead one and its tasks are requeued.
            server.registry.beat(channel.peer, time.monotonic())
            result = hub.complete(channel.peer, body)
            if result is None:
                return
            state["last_progress"] = time.monotonic()
            if result.blob is not None:
                self.stats.payload_bytes += len(result.blob)
            results.put(result)

        server = self._server = FrameServer(
            parse_address(bind) if bind else os.path.join(run_dir, "hub.sock"),
            loop,
            {"next": on_next, "result": on_result,
             "bye": lambda channel, _body: server.drop(channel.peer)},
            welcome, lose_worker, heartbeat_ttl=self.heartbeat_ttl,
        )

        def start_worker() -> None:
            name = f"w{len(procs)}"
            forked = context.get_start_method() == "fork"
            proc = context.Process(
                target=_local_worker,
                args=(_connect_address(server.address), name,
                      server.listener if forked else None),
                name=f"repro-sweep-{name}", daemon=True,
            )
            proc.start()
            procs[name] = proc

        def watchdog() -> None:
            """Daemon timer: respawn, and give up on a sweep nobody serves."""
            if hub.done:
                return
            now = time.monotonic()
            connected = server.registry.names()
            if not connected and not any(
                    proc.is_alive() for proc in procs.values()):
                if state["respawns"] <= 0:
                    results.put(WireError(
                        "parallel sweep: every local worker exited"))
                    return
                state["respawns"] -= 1
                start_worker()
                state["last_progress"] = now
            if (not connected
                    and now - state["last_progress"] > WORKER_TIMEOUT):
                results.put(WireError(
                    f"parallel sweep: no workers connected for "
                    f"{WORKER_TIMEOUT:.0f}s"))
                return
            loop.schedule(0.1, watchdog, daemon=True)

        def reap() -> None:
            """Wait for the workers told ``bye``; kill the rest at once."""
            deadline = time.monotonic() + SHUTDOWN_GRACE
            told = server.registry.names()
            for name, proc in procs.items():
                if name in told:
                    proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    # Never got as far as hello, or deaf to bye: every
                    # result is in, so nothing it holds is wanted.
                    proc.kill()
                proc.join()
                proc.close()  # else its sentinel fd waits for a cyclic gc

        unavailable: Optional[OSError] = None
        try:
            # Workers are forked while this is still the only hub thread
            # (no lock is mid-acquire in the forked copy); the server is
            # already bound, so their connects wait in its backlog.
            try:
                for _ in range(spawn):
                    start_worker()
            except OSError as exc:
                unavailable = exc
            else:
                loop.start()
                server.start()
                loop.schedule(0.1, watchdog, daemon=True)
                for _ in tasks:
                    result = results.get()
                    if isinstance(result, Exception):
                        raise result
                    yield result
        finally:
            loop.stop()
            server.shutdown(reap)
            self.stats.wire_bytes = server.wire_bytes
            self._hub = self._server = None
            self._procs = {}
            if bind and isinstance(server.address, str):
                try:
                    os.unlink(server.address)  # may live outside run_dir
                except OSError:
                    pass
            shutil.rmtree(run_dir, ignore_errors=True)
        if unavailable is not None:
            # Only worker *start* falls back (sandboxes without fork
            # rights); an error after workers exist -- a killed worker,
            # a torn blob -- must surface, not silently recompute.
            # Determinism makes the in-process results identical.
            # stderr, so rendered tables stay byte-identical regardless.
            print(f"repro.exec: sweep workers unavailable ({unavailable}); "
                  "evaluating in process", file=sys.stderr)
            yield from evaluate_in_process(tasks)
