"""Tests for the parallel sweep path (``repro.exec.distributed``).

Three layers, separately:

- :class:`SweepHub` is driven directly -- the wire protocol's dispatch
  semantics (task/wait/bye replies, duplicate suppression, bounded
  retry-with-backoff on worker loss) without any sockets;
- one real :class:`~repro.exec.worker.WorkerRuntime` is driven over a
  socketpair by a scripted hub -- the worker side of the
  hello/next/task/result/heartbeat framing;
- full sweeps run against the hub's forked workers, including the
  headline fault test: SIGKILL a worker mid-sweep and the sweep still
  completes with a cache tree byte-identical to the in-process path's,
  the retry attributed in the run manifest;
- the hub's ``FrameServer`` is met by faulty peers mid-sweep (the
  store hub's ``FakePeer`` and damage list from
  ``tests/test_runtime_wire.py``), a second connection saying a live
  worker's name, and a worker that hangs without closing its socket:
  each costs that connection only and the sweep's bytes nothing.

Point functions live at module level because workers import them by
reference.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.exec import (
    HUB_BIND_ENV,
    ResultCache,
    SweepSpec,
    run_sweep,
)
from repro.exec.codec import CodecError, decode_result
from repro.exec.distributed import (
    DistributedExecutor,
    SweepHub,
    _connect_address,
)
from repro.exec.backends import PointTask, _payload_digest
from repro.exec.worker import (
    WorkerRuntime,
    function_reference,
    load_function,
)
from repro.exec.codec import encode_result
from repro.obs.cli import main as obs_main
from repro.obs.manifest import (
    load_manifest,
    point_record,
    summarize_manifest,
    validate_manifest,
)
from repro.runtime.wire import FrameChannel
from tests.test_runtime_reactor import repro_threads
from tests.test_runtime_wire import DAMAGE, FakePeer, frame_bytes, inflict


def grid_point(config, seed):
    """Pure, deterministic: exact binary fractions of config and seed."""
    n = config["n"]
    base = seed % (1 << 16)
    return {
        "n": n,
        "seed": seed,
        "samples": [(base + i * n) / 32.0 for i in range(24)],
        "sum": sum((base + i * n) for i in range(24)),
    }


def gated_point(config, seed):
    """Blocks while ``config["gate"]`` names a missing file.

    The payload is a pure function of config and seed -- the gate only
    shapes *timing*, so a retried evaluation returns identical bytes.
    """
    gate = config.get("gate")
    if gate:
        deadline = time.time() + 30.0
        while not os.path.exists(gate) and time.time() < deadline:
            time.sleep(0.02)
    return grid_point(config, seed)


def _hub_tasks(count):
    return [
        PointTask(run_point=grid_point, index=i, label=f"n={i}",
                  config={"n": i}, seed=1000 + i)
        for i in range(count)
    ]


class TestSweepHubProtocol:
    def test_next_task_dispatches_in_index_order(self):
        hub = SweepHub(_hub_tasks(3))
        hub.register("w0")
        kind, body = hub.next_task("w0", now=0.0)
        assert kind == "task"
        assert body["index"] == 0
        assert body["label"] == "n=0"
        assert body["config"] == {"n": 0}
        assert body["seed"] == 1000
        assert body["attempt"] == 0
        ref = body["fn"]
        assert ref["qualname"] == "grid_point"
        assert load_function(ref) is grid_point

    def test_wait_when_everything_is_in_flight(self):
        hub = SweepHub(_hub_tasks(1))
        hub.register("w0")
        hub.register("w1")
        assert hub.next_task("w0", now=0.0)[0] == "task"
        kind, body = hub.next_task("w1", now=0.0)
        assert kind == "wait"
        assert body["delay"] > 0

    def test_result_completes_and_attributes_the_point(self):
        hub = SweepHub(_hub_tasks(1))
        hub.register("w0")
        _, body = hub.next_task("w0", now=0.0)
        blob = encode_result(grid_point(body["config"], body["seed"]))
        delivered = hub.complete("w0", {
            "index": 0, "ok": True, "blob": blob,
            "digest": _payload_digest(blob), "wall_s": 0.25,
            "peak_rss_kb": 10, "events": 0,
        })
        assert delivered is not None
        assert (delivered.index, delivered.ok) == (0, True)
        assert delivered.blob == blob
        assert delivered.telemetry.worker == "w0"
        assert delivered.telemetry.retries == 0
        assert delivered.payload == grid_point({"n": 0}, 1000)
        assert hub.done
        assert hub.next_task("w0", now=1.0)[0] == "bye"

    def test_duplicate_result_is_suppressed(self):
        hub = SweepHub(_hub_tasks(1))
        hub.register("w0")
        hub.next_task("w0", now=0.0)
        blob = encode_result(grid_point({"n": 0}, 1000))
        frame = {"index": 0, "ok": True, "blob": blob,
                 "digest": _payload_digest(blob)}
        assert hub.complete("w0", dict(frame)) is not None
        assert hub.complete("w0", dict(frame)) is None

    def test_torn_result_blob_is_rejected(self):
        hub = SweepHub(_hub_tasks(1))
        hub.register("w0")
        hub.next_task("w0", now=0.0)
        blob = encode_result(grid_point({"n": 0}, 1000))
        with pytest.raises(CodecError):
            hub.complete("w0", {"index": 0, "ok": True, "blob": blob,
                                "digest": "0" * 8})

    def test_worker_loss_requeues_with_backoff(self):
        hub = SweepHub(_hub_tasks(2), retry_base_delay=0.5)
        hub.register("w0")
        _, body = hub.next_task("w0", now=0.0)
        assert body["index"] == 0
        failures, requeued = hub.lose("w0", now=10.0)
        assert failures == []
        assert requeued == 1
        hub.register("w1")
        # Index 1 was never dispatched and is immediately available;
        # index 0 is held back until its backoff deadline passes.
        _, body = hub.next_task("w1", now=10.0)
        assert body["index"] == 1
        kind, _ = hub.next_task("w1", now=10.0)
        assert kind == "wait"
        kind, body = hub.next_task("w1", now=10.6)
        assert kind == "task"
        assert body["index"] == 0
        assert body["attempt"] == 1

    def test_retry_budget_exhaustion_fails_the_point(self):
        hub = SweepHub(_hub_tasks(1), max_retries=1, retry_base_delay=0.0)
        for round_ in range(2):
            name = f"w{round_}"
            hub.register(name)
            kind, _ = hub.next_task(name, now=float(round_))
            assert kind == "task"
            failures, _ = hub.lose(name, now=float(round_))
        assert len(failures) == 1
        failure = failures[0]
        assert (failure.index, failure.ok) == (0, False)
        assert "retries exhausted" in failure.payload
        assert failure.telemetry.retries == 1
        assert hub.done

    def test_lost_worker_asking_again_is_told_bye(self):
        hub = SweepHub(_hub_tasks(2))
        hub.register("w0")
        hub.next_task("w0", now=0.0)
        hub.lose("w0", now=0.0)
        assert hub.next_task("w0", now=5.0)[0] == "bye"


class TestFunctionReference:
    def test_roundtrip_by_module_name(self):
        ref = function_reference(grid_point)
        assert ref["module"] == grid_point.__module__
        assert load_function(ref) is grid_point

    def test_local_functions_are_rejected(self):
        def local(config, seed):
            return None

        with pytest.raises(ValueError):
            function_reference(local)
        # ...and up front: before a hub exists, let alone a worker.
        spec = SweepSpec(name="local", run_point=local)
        spec.add("a", n=1)
        spec.add("b", n=2)
        with pytest.raises(ValueError, match="module-level"):
            run_sweep(spec, parallel=2)

    def test_source_file_fallback_for_unimportable_modules(self, tmp_path):
        script = tmp_path / "sweep_script.py"
        script.write_text(
            "def scripted_point(config, seed):\n"
            "    return config['n'] * seed\n"
        )
        ref = {"module": "__main__", "qualname": "scripted_point",
               "file": str(script)}
        fn = load_function(ref)
        assert fn({"n": 3}, 7) == 21
        # Cached per path: the second load is the same module object.
        assert load_function(ref) is fn


class TestWorkerProtocol:
    """Drive one real worker runtime over a socketpair, hub scripted."""

    @pytest.fixture()
    def hub_channel(self):
        import socket

        ours, theirs = socket.socketpair()
        hub = FrameChannel(ours)
        runtime = WorkerRuntime(FrameChannel(theirs), "wt",
                                heartbeat_interval=60.0)
        thread = threading.Thread(target=runtime.run, daemon=True)
        thread.start()
        yield hub
        hub.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    @staticmethod
    def _recv_skipping_heartbeats(channel):
        while True:
            frame = channel.recv()
            assert frame is not None
            if frame[0] != "heartbeat":
                return frame

    def test_hello_task_result_bye_roundtrip(self, hub_channel):
        kind, body = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "hello"
        assert body["node"] == "wt"
        assert body["pid"] == os.getpid()
        hub_channel.send("welcome", node="wt", paths=[])

        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "next"
        hub_channel.send(
            "task", index=5, label="n=2", config={"n": 2}, seed=77,
            fn=function_reference(grid_point), attempt=0,
        )
        kind, body = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "result"
        assert body["index"] == 5
        assert body["ok"] is True
        assert _payload_digest(body["blob"]) == body["digest"]
        assert decode_result(body["blob"]) == grid_point({"n": 2}, 77)
        assert body["wall_s"] >= 0.0

        # The freed slot asks again; the sweep is over.
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "next"
        hub_channel.send("bye")

    def test_wait_backs_off_and_reasks(self, hub_channel):
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "hello"
        hub_channel.send("welcome", node="wt", paths=[])
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "next"
        hub_channel.send("wait", delay=0.01)
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "next"
        hub_channel.send("bye")

    def test_point_failure_travels_as_error_result(self, hub_channel):
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "hello"
        hub_channel.send("welcome", node="wt", paths=[])
        kind, _ = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "next"
        hub_channel.send(
            "task", index=0, label="bad", config={}, seed=1,
            fn={"module": "no.such.module", "qualname": "f", "file": ""},
            attempt=0,
        )
        kind, body = self._recv_skipping_heartbeats(hub_channel)
        assert kind == "result"
        assert body["ok"] is False
        assert "no.such.module" in body["error"]
        hub_channel.send("bye")


def _grid_spec(gate=None, slow_labels=("n=0",), points=6):
    spec = SweepSpec(name="dist-grid", run_point=gated_point)
    for n in range(points):
        label = f"n={n}"
        config = {"n": n}
        if gate is not None and label in slow_labels:
            config["gate"] = gate
        spec.add(label, **config)
    return spec


def _result_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in Path(root).rglob("*.res")
    }


def _children():
    """PIDs of this process's live (or unreaped) children."""
    me = str(os.getpid())
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid ...; comm may contain spaces.
        if stat.rpartition(")")[2].split()[1] == me:
            found.add(int(entry))
    return found


class TestDistributedSweeps:
    def test_stats_account_wire_traffic_and_attribution(self, tmp_path):
        executor = DistributedExecutor()
        spec = SweepSpec(name="stats", run_point=grid_point)
        for n in range(5):
            spec.add(f"n={n}", n=n)
        measured = run_sweep(spec, parallel=2, executor=executor,
                             cache_dir=tmp_path)
        assert len(measured) == 5
        assert executor.stats.wire_bytes > executor.stats.payload_bytes > 0
        assert executor.stats.retries == 0
        points = [r for r in load_manifest(tmp_path / "manifest.jsonl")
                  if r["rec"] == "point"]
        assert len(points) == 5
        assert {r["worker"] for r in points} <= {"w0", "w1"}

    def test_refuses_recursion_inside_a_worker(self, monkeypatch):
        from repro.exec.worker import WORKER_ENV

        monkeypatch.setenv(WORKER_ENV, "1")
        spec = SweepSpec(name="nested", run_point=grid_point)
        spec.add("n=1", n=1)
        spec.add("n=2", n=2)
        with pytest.raises(RuntimeError, match="__main__"):
            run_sweep(spec, parallel=2)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_no_thread_or_child_process_outlives_the_sweep(self):
        children = _children()
        # Fewer points than workers: one worker is told ``wait`` and is
        # idling in its back-off when the sweep completes.
        for points in (2, 3, 24):
            started = time.monotonic()
            assert len(run_sweep(_grid_spec(points=points), parallel=4)) \
                == points
            elapsed = time.monotonic() - started
            assert elapsed < 2.0, f"{points}-point sweep took {elapsed:.2f}s"
            assert repro_threads() == []
            assert _children() <= children
        # ...nor a file descriptor: a worker's Process object holds one
        # (its sentinel) until it is closed or garbage-collected.
        descriptors = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            assert len(run_sweep(_grid_spec(), parallel=3)) == 6
        assert repro_threads() == []
        assert _children() <= children
        assert len(os.listdir("/proc/self/fd")) == descriptors

    def test_tcp_wildcard_bind_connects_via_loopback(self):
        assert _connect_address(("0.0.0.0", 4242)) == ("127.0.0.1", 4242)
        assert _connect_address(("10.0.0.7", 4242)) == ("10.0.0.7", 4242)
        assert _connect_address("/tmp/hub.sock") == "/tmp/hub.sock"

    def test_external_worker_joins_through_hub_bind(
            self, tmp_path, monkeypatch):
        """``REPRO_HUB_BIND`` is the whole multi-host story: the hub
        serves on that address, still starts its local workers, and an
        externally launched daemon computes points next to them."""
        address = f"unix:{tmp_path / 'hub.sock'}"
        gate = str(tmp_path / "gate")
        monkeypatch.setenv(HUB_BIND_ENV, address)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        env.pop(HUB_BIND_ENV)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--hub", address, "--name", "remote"],
            env=env,
        )
        cache_dir = tmp_path / "cache"
        outcome = {}

        def drive():
            try:
                # Two local workers; both gated points can be held
                # while a third worker still finds work.
                outcome["results"] = run_sweep(
                    _grid_spec(gate=gate, slow_labels=("n=0", "n=1")),
                    parallel=2, cache_dir=cache_dir,
                )
            except BaseException as exc:  # surfaces in the main thread
                outcome["error"] = exc

        sweep = threading.Thread(target=drive)
        sweep.start()
        try:
            # Held shut until the daemon has had time to connect: with
            # the gated points pinning two workers, the third gets work.
            daemon_deadline = time.time() + 20.0
            manifest = cache_dir / "manifest.jsonl"
            while time.time() < daemon_deadline:
                if manifest.exists() and len(
                        manifest.read_text().splitlines()) >= 4:
                    break
                time.sleep(0.02)
        finally:
            Path(gate).touch()
            sweep.join(timeout=60.0)
            try:
                daemon.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        assert not sweep.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert daemon.returncode == 0  # it was told ``bye``
        assert not (tmp_path / "hub.sock").exists()
        workers = {
            record["worker"] for record in load_manifest(manifest)
            if record.get("rec") == "point"
        }
        assert workers == {"w0", "w1", "remote"}

    def test_worker_kill_mid_sweep_is_byte_identical(self, tmp_path):
        """SIGKILL one worker while it holds a point: the sweep must
        complete, the cache tree must match the in-process path's byte
        for byte, and the retry must be attributed in the manifest."""
        gate = str(tmp_path / "gate")
        serial_dir = tmp_path / "serial"
        dist_dir = tmp_path / "dist"

        executor = DistributedExecutor()
        outcome = {}

        def drive():
            try:
                outcome["results"] = run_sweep(
                    _grid_spec(gate=gate), parallel=2,
                    cache=ResultCache(dist_dir, fingerprint="pinned"),
                    executor=executor,
                )
            except BaseException as exc:  # surfaces in the main thread
                outcome["error"] = exc

        sweep = threading.Thread(target=drive)
        sweep.start()
        try:
            victim = None
            deadline = time.time() + 20.0
            while victim is None and time.time() < deadline:
                for name, indices in executor.inflight().items():
                    if 0 in indices:  # n=0 is the gated point
                        victim = name
                        break
                time.sleep(0.02)
            assert victim is not None, "gated point never dispatched"
            os.kill(executor.worker_pid(victim), signal.SIGKILL)
        finally:
            # Open the gate so the retried evaluation returns quickly
            # (and so a failed dispatch above cannot hang the sweep).
            Path(gate).touch()
            sweep.join(timeout=60.0)
        assert not sweep.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert executor.stats.retries >= 1

        serial_results = run_sweep(
            _grid_spec(gate=gate),
            cache=ResultCache(serial_dir, fingerprint="pinned"),
            parallel=1,
        )
        assert outcome["results"] == serial_results
        dist_tree = _result_tree(dist_dir)
        assert dist_tree == _result_tree(serial_dir)
        assert len(dist_tree) == 6

        records = load_manifest(dist_dir / "manifest.jsonl")
        assert validate_manifest(records) == []
        retried = [r for r in records if r.get("rec") == "point"
                   and r.get("label") == "n=0"]
        assert retried and retried[0]["retries"] >= 1
        assert retried[0]["worker"] != victim  # finished elsewhere


def _wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


@contextmanager
def gated_sweep(tmp_path, monkeypatch, executor=None, parallel=2, gated=1):
    """A six-point sweep held open by its last ``gated`` points, served
    where a ``FakePeer`` can connect.  Yields ``(executor, holder,
    gate)`` once every other point is in and worker ``holder`` sits on
    the first gated one, ``6 - gated``; on exit opens the gate and
    requires the finished sweep to equal ``parallel=1``'s, results and
    cache tree byte for byte."""
    monkeypatch.setenv(HUB_BIND_ENV, f"unix:{tmp_path / 'hub.sock'}")
    gate = tmp_path / "gate"
    executor = executor or DistributedExecutor()
    held = list(range(6 - gated, 6))
    slow = tuple(f"n={index}" for index in held)
    outcome = {}

    def drive():
        try:
            outcome["results"] = run_sweep(
                _grid_spec(gate=str(gate), slow_labels=slow),
                parallel=parallel,
                cache=ResultCache(tmp_path / "dist", fingerprint="pinned"),
                executor=executor,
            )
        except BaseException as exc:  # surfaces in the main thread
            outcome["error"] = exc

    sweep = threading.Thread(target=drive)
    sweep.start()
    try:
        assert _wait_until(
            lambda: executor._hub is not None
            and len(executor._hub.completed) == 6 - gated
            and sorted(executor.inflight().values())
            == [[index] for index in held]
        ), "the sweep never settled on its gated points"
        holder = next(name for name, indices in executor.inflight().items()
                      if indices == held[:1])
        yield executor, holder, gate
    finally:
        gate.touch()
        sweep.join(timeout=60.0)
    assert not sweep.is_alive()
    assert "error" not in outcome, outcome.get("error")
    serial = run_sweep(
        _grid_spec(gate=str(gate), slow_labels=slow), parallel=1,
        cache=ResultCache(tmp_path / "serial", fingerprint="pinned"),
    )
    assert outcome["results"] == serial
    tree = _result_tree(tmp_path / "dist")
    assert tree == _result_tree(tmp_path / "serial") and len(tree) == 6
    records = load_manifest(tmp_path / "dist" / "manifest.jsonl")
    assert validate_manifest(records) == []


def _point_record(tmp_path, label):
    return next(record
                for record in load_manifest(tmp_path / "dist" / "manifest.jsonl")
                if record.get("rec") == "point" and record["label"] == label)


class TestSweepHubAgainstFaultyPeers:
    """The sweep hub is the store hub's ``FrameServer``: what costs a
    faulty peer its connection there costs it here -- and only it."""

    @pytest.fixture()
    def peer(self):
        peers = []

        def connect(server):
            peers.append(FakePeer(server))
            return peers[-1]

        yield connect
        for one in peers:
            one.channel.close()

    def test_damage_costs_that_connection_only(
            self, tmp_path, monkeypatch, peer):
        with gated_sweep(tmp_path, monkeypatch) as (executor, holder, _):
            server = executor._server
            for first in (frame_bytes(("next", {"node": "w0"})),
                          frame_bytes(("heartbeat", {"node": holder})),
                          struct.pack(">I", 5) + b"junk!"):
                stranger = peer(server)
                stranger.raw(first)  # anything but hello first
                assert stranger.closed_by_hub()
            torn = encode_result(grid_point({"n": 5}, 1))
            for damage in DAMAGE + [
                frame_bytes(("result", {"index": 5, "ok": True, "blob": torn,
                                        "digest": "0" * 8})),
                frame_bytes(("result", {"ok": False})),
            ]:
                ghost = peer(server)
                ghost.hello("ghost")
                inflict(ghost, damage)
                assert ghost.closed_by_hub()
                assert _wait_until(lambda: server.channel_for("ghost") is None)
            # A result for an index never handed out is ignored, and the
            # connection kept: the next request on it is still answered.
            ghost = peer(server)
            ghost.hello("ghost")
            ghost.channel.send("result", index=99, ok=False, error="?")
            ghost.channel.send("next", node="ghost")
            assert ghost.channel.recv(timeout=5.0)[0] == "wait"
            ghost.channel.send("bye")
            assert ghost.closed_by_hub()
            # None of it touched the real workers or their one held point.
            assert executor.inflight() == {holder: [5]}
            assert server.registry.names() == ["w0", "w1"]
        assert executor.stats.retries == 0

    def test_a_silent_peer_is_closed_at_the_hello_deadline(
            self, tmp_path, monkeypatch, peer):
        with gated_sweep(tmp_path, monkeypatch) as (executor, _, _):
            executor._server.hello_timeout = 0.4
            silent = peer(executor._server)
            started = time.monotonic()
            assert silent.closed_by_hub(timeout=5.0)
            assert 0.3 < time.monotonic() - started < 3.0
            # It parked no thread: caller + dispatcher + accept remain.
            assert _wait_until(lambda: repro_threads() == [
                "repro-hub-accept", "repro-live-loop"], timeout=5.0)

    @pytest.mark.parametrize("parallel", [2, 4])
    def test_a_running_sweep_has_two_hub_threads_whatever_the_workers(
            self, tmp_path, monkeypatch, parallel):
        with gated_sweep(tmp_path, monkeypatch, parallel=parallel) as (
                executor, _, _):
            assert _wait_until(lambda: len(
                executor._server.registry.names()) == parallel)
            assert _wait_until(lambda: repro_threads() == [
                "repro-hub-accept", "repro-live-loop"], timeout=5.0)

    def test_a_name_said_twice_goes_to_the_newest_connection(
            self, tmp_path, monkeypatch, peer):
        # Both real workers sit on a gated point, so nobody else can
        # take the requeued one.
        with gated_sweep(tmp_path, monkeypatch, gated=2) as (
                executor, holder, gate):
            other = next(name for name in executor.inflight()
                         if name != holder)
            usurper = peer(executor._server)
            usurper.hello(holder)
            # The older connection was dropped and its point requeued --
            # once -- before the welcome; the newcomer is served it.
            assert executor.stats.retries == 1
            assert executor.inflight() == {other: [5]}
            while True:
                usurper.channel.send("next", node=holder)
                kind, task = usurper.channel.recv(timeout=5.0)
                if kind != "wait":  # the requeue's back-off
                    break
                time.sleep(task["delay"])
            assert (kind, task["index"], task["attempt"]) == ("task", 4, 1)
            assert executor.inflight() == {holder: [4], other: [5]}
            gate.touch()  # the deposed worker may finish and leave
            blob = encode_result(grid_point(task["config"], task["seed"]))
            usurper.channel.send("result", index=4, ok=True, blob=blob,
                                 digest=_payload_digest(blob))
        assert executor.stats.retries == 1
        record = _point_record(tmp_path, "n=4")
        assert (record["worker"], record["retries"]) == (holder, 1)

    def test_a_hung_worker_is_dropped_at_the_ttl_and_its_point_retried(
            self, tmp_path, monkeypatch):
        executor = DistributedExecutor(heartbeat_ttl=0.6)
        with gated_sweep(tmp_path, monkeypatch, executor) as (_, holder, gate):
            pid = executor.worker_pid(holder)
            os.kill(pid, signal.SIGSTOP)  # connected, but no more beats
            stopped = time.monotonic()
            assert _wait_until(lambda: executor.stats.retries >= 1,
                               timeout=10.0)
            assert time.monotonic() - stopped < 5.0
            assert executor._server.channel_for(holder) is None
        record = _point_record(tmp_path, "n=5")
        assert record["retries"] >= 1 and record["worker"] != holder
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)


class TestWorkerAttributionSurfaces:
    def _records(self):
        return [
            point_record("grid", "n=0", "ok", "miss", "distributed",
                         0.5, worker="w0", retries=1),
            point_record("grid", "n=1", "ok", "miss", "distributed",
                         0.25, worker="w1"),
            point_record("grid", "n=2", "ok", "miss", "distributed",
                         0.25, worker="w0"),
            point_record("grid", "n=3", "ok", "hit", "distributed", 0.001),
        ]

    def test_point_record_emits_worker_only_when_set(self):
        assert point_record("s", "l", "ok", "miss", "serial", 0.1).get(
            "worker") is None
        assert point_record("s", "l", "ok", "miss", "distributed", 0.1,
                            worker="w7")["worker"] == "w7"

    def test_summarize_aggregates_per_worker(self):
        stats = summarize_manifest(self._records())["specs"]["grid"]
        assert stats["retries"] == 1
        assert stats["workers"] == {
            "w0": {"points": 2, "retries": 1},
            "w1": {"points": 1, "retries": 0},
        }

    def test_obs_summary_prints_worker_attribution(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps(record) + "\n" for record in self._records()
        ))
        assert obs_main(["summary", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "workers: w0(2 points, 1 retries), w1(1 points, 0 retries)" \
            in out
        assert "retries: 1 task re-dispatches" in out

    def test_validate_rejects_non_string_worker(self):
        record = point_record("s", "l", "ok", "miss", "distributed", 0.1,
                              worker="w0")
        record["worker"] = 7
        errors = validate_manifest([record])
        assert any("worker" in error for error in errors)
