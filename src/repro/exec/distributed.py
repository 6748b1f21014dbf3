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
- :class:`DistributedExecutor` is the I/O shell: it binds a listener (a
  Unix socket in a throwaway run directory, or the ``unix:``/``tcp:``
  address named by ``REPRO_HUB_BIND`` so daemons on other hosts can
  join), starts the local workers from the ``multiprocessing`` context
  -- each runs the same :func:`repro.exec.worker.serve` loop that
  ``python -m repro.exec.worker`` runs -- keeps one reader thread per
  worker connection, sweeps heartbeat liveness through the shared
  :class:`~repro.runtime.registry.Registry`, and streams results back
  to the runner as they arrive.

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
from repro.runtime.registry import Registry
from repro.runtime.wire import (
    Address,
    FrameChannel,
    WireError,
    listen,
    parse_address,
)

#: Environment variable naming the hub bind address (``unix:<path>`` or
#: ``tcp:<host>:<port>``) for multi-host sweeps; unset means a private
#: Unix socket that only the local workers know.
HUB_BIND_ENV = "REPRO_HUB_BIND"

#: How long shutdown waits for a worker that was told ``bye`` (and for
#: the hub's own threads) before it stops waiting politely.
SHUTDOWN_GRACE = 2.0


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
        retry_max_delay: float = 1.0,
    ) -> None:
        self.tasks: Dict[int, PointTask] = {t.index: t for t in tasks}
        self.max_retries = max(0, int(max_retries))
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
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
                        self.retry_max_delay,
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
        worker_timeout: float = 60.0,
    ) -> None:
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.heartbeat_ttl = heartbeat_ttl
        self.worker_timeout = worker_timeout
        self.stats = ExecutorStats()
        # Per-run state (rebuilt by _serve).
        self._hub: Optional[SweepHub] = None
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
        registry = Registry(ttl=self.heartbeat_ttl)
        results: "queue.Queue[TaskResult]" = queue.Queue()
        stop = threading.Event()
        channels: List[FrameChannel] = []
        readers: List[threading.Thread] = []
        channel_by_name: Dict[str, FrameChannel] = {}
        lock = threading.Lock()
        run_dir = tempfile.mkdtemp(prefix="repro-sweep-hub-")
        bind = os.environ.get(HUB_BIND_ENV)
        address: Address = (
            parse_address(bind) if bind
            else os.path.join(run_dir, "hub.sock")
        )
        state = {
            "last_progress": time.monotonic(),
            "respawns": spawn,  # replacement budget for dead local workers
        }
        context = _pool_context()
        procs = self._procs = {}
        self._hub = hub

        def start_worker() -> None:
            name = f"w{len(procs)}"
            forked = context.get_start_method() == "fork"
            proc = context.Process(
                target=_local_worker,
                args=(_connect_address(address), name,
                      listener if forked else None),
                name=f"repro-sweep-{name}", daemon=True,
            )
            proc.start()
            procs[name] = proc

        def lose_worker(name: str) -> None:
            now = time.monotonic()
            failures, requeued = hub.lose(name, now)
            registry.deregister(name)
            with lock:
                channel_by_name.pop(name, None)
                self.stats.retries += requeued
            for result in failures:
                results.put(result)

        def reader(channel: FrameChannel) -> None:
            name: Optional[str] = None
            try:
                while not stop.is_set():
                    frame = channel.recv()
                    if frame is None:
                        break
                    kind, body = frame
                    if kind == "hello":
                        name = str(body["node"])
                        hub.register(name)
                        registry.register(
                            name, int(body.get("pid", 0)), conn=channel,
                            now=time.monotonic(),
                        )
                        with lock:
                            channel_by_name[name] = channel
                            state["last_progress"] = time.monotonic()
                        channel.send(
                            "welcome", node=name,
                            paths=[p or os.getcwd() for p in sys.path],
                        )
                    elif name is None:
                        continue  # pre-hello chatter from a confused peer
                    elif kind == "heartbeat":
                        registry.beat(name, time.monotonic())
                    elif kind == "next":
                        kind_out, body_out = hub.next_task(
                            name, time.monotonic()
                        )
                        channel.send(kind_out, **body_out)
                    elif kind == "result":
                        registry.beat(name, time.monotonic())
                        result = hub.complete(name, body)
                        if result is None:
                            continue
                        with lock:
                            state["last_progress"] = time.monotonic()
                            if result.blob is not None:
                                self.stats.payload_bytes += len(result.blob)
                        results.put(result)
                    elif kind == "bye":
                        break
            except (WireError, CodecError, KeyError, TypeError, ValueError):
                # A faulty or corrupt worker is handled like a dead one:
                # drop the connection, requeue its tasks.
                pass
            finally:
                if name is not None:
                    lose_worker(name)
                channel.close()

        def accept_loop() -> None:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener shut down
                channel = FrameChannel(conn)
                thread = threading.Thread(
                    target=reader, args=(channel,),
                    name="repro-hub-reader", daemon=True,
                )
                with lock:
                    channels.append(channel)
                    readers.append(thread)
                thread.start()

        def tick() -> None:
            """Idle-loop maintenance: expiry, respawn, hang detection."""
            now = time.monotonic()
            for name in registry.expire(now):
                with lock:
                    channel = channel_by_name.get(name)
                if channel is not None:
                    channel.close()  # unblocks its reader -> lose_worker
                else:
                    lose_worker(name)
            if hub.done:
                return
            if not registry.names() and not any(
                    proc.is_alive() for proc in procs.values()):
                if state["respawns"] <= 0:
                    raise WireError(
                        "parallel sweep: every local worker exited"
                    )
                state["respawns"] -= 1
                start_worker()
                with lock:
                    state["last_progress"] = time.monotonic()
            with lock:
                stalled = now - state["last_progress"]
            if not registry.names() and stalled > self.worker_timeout:
                raise WireError(
                    f"parallel sweep: no workers connected for "
                    f"{self.worker_timeout:.0f}s"
                )

        listener = listen(address)
        if isinstance(address, tuple):
            address = listener.getsockname()[:2]  # resolve port 0
        acceptor = threading.Thread(
            target=accept_loop, name="repro-hub-accept", daemon=True,
        )
        unavailable: Optional[OSError] = None
        try:
            # Workers start while this is still the only hub thread (no
            # lock is mid-acquire in the forked copy); the listener is
            # already bound, so their connects wait in its backlog.
            try:
                for _ in range(spawn):
                    start_worker()
            except OSError as exc:
                unavailable = exc
            else:
                acceptor.start()
                delivered = 0
                while delivered < len(tasks):
                    try:
                        result = results.get(timeout=0.1)
                    except queue.Empty:
                        tick()
                        continue
                    delivered += 1
                    yield result
        finally:
            stop.set()
            deadline = time.monotonic() + SHUTDOWN_GRACE
            with lock:
                open_channels = list(channels)
            for channel in open_channels:
                try:
                    channel.send("bye")
                except WireError:
                    pass
            told = set(registry.names())
            try:
                # shutdown() wakes the acceptor out of accept(); close()
                # alone leaves it blocked on Linux.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
            for name, proc in procs.items():
                if name in told:
                    proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    # Never got as far as hello, or deaf to bye: every
                    # result is in, so nothing it holds is wanted.
                    proc.kill()
                proc.join()
            for channel in open_channels:
                channel.close()
            with lock:
                threads = [acceptor] if acceptor.is_alive() else []
                threads += readers
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            with lock:
                self.stats.wire_bytes = sum(
                    ch.sent_bytes + ch.recv_bytes for ch in channels
                )
            self._hub = None
            self._procs = {}
            if bind and isinstance(address, str):
                try:
                    os.unlink(address)  # may live outside run_dir
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
