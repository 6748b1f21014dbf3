"""The layer ladder: the cost of one operation at successive rungs.

Each rung times a tight loop over one layer's public entry points, from
a bare kernel event up to a replicated write, so an end-to-end change can
be matched to the rung whose cost moved.  A rung is a function that runs
``count`` units and returns the elapsed seconds; :func:`measure` sizes
``count`` so one repetition lasts at least ``floor_s``, then reports the
median unit cost of one warm-up plus :data:`REPS` repetitions.

The ``sim`` rungs are reported (by ``run.py``) under the workload whose
spans show that layer largest; the ``runtime`` rungs under
``socket_mixed``.
"""

from __future__ import annotations

import os
import shutil
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List

from repro.comm.endpoint import CommunicationObject
from repro.comm.message import Message
from repro.exec.codec import decode_result, encode_result
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.wire import FrameChannel
from repro.sim.kernel import Simulator
from repro.transport.backend import SocketBackend
from repro.workload.scenarios import build_tree

from benchmarks.perf.workloads import make_run_dir, page_body, policy_for

#: Timed repetitions per rung (after one untimed warm-up).
REPS = 5

#: Units issued between drains of the simulator, so the pending-event
#: count (and with it the queue cost) does not grow with ``count``.
BATCH = 500

#: Fan-out of the multicast rung and replica count of the write rung.
FANOUT = 20
REPLICAS = 100

Rung = Callable[[int], float]


def measure(rung: Rung, floor_s: float) -> float:
    """Median seconds per unit of ``rung`` (see the module docstring)."""
    count = 20
    while True:
        elapsed = rung(count)  # doubles as the warm-up once sized
        if elapsed >= floor_s:
            break
        count = max(count * 2, int(count * 1.2 * floor_s / max(elapsed, 1e-9)))
    return statistics.median(rung(count) / count for _ in range(REPS))


def _batched(count: int, issue: Callable[[int], None],
             drain: Callable[[], object]) -> float:
    """Time ``count`` units issued in :data:`BATCH`-sized drained batches."""
    started = time.perf_counter()
    done = 0
    while done < count:
        batch = min(BATCH, count - done)
        issue(batch)
        drain()
        done += batch
    return time.perf_counter() - started


# -- sim rungs --------------------------------------------------------------------


def event_rung() -> Rung:
    """Schedule and fire one no-op kernel event."""
    sim = Simulator(seed=1)

    def noop() -> None:
        pass

    def issue(batch: int) -> None:
        for _ in range(batch):
            sim.schedule(0.001, noop)

    return lambda count: _batched(count, issue, sim.run_until_idle)


def _network(nodes: int):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001))
    for index in range(nodes):
        net.register(f"n{index}", lambda src, payload, size: None)
    return sim, net


def send_rung() -> Rung:
    """One reliable ``Network.send`` through to its arrival callback."""
    sim, net = _network(2)

    def issue(batch: int) -> None:
        for _ in range(batch):
            net.send("n0", "n1", None, size_bytes=64)

    return lambda count: _batched(count, issue, sim.run_until_idle)


def multicast_rung(fanout: int) -> Rung:
    """One ``Network.multicast`` call to ``fanout`` destinations."""
    sim, net = _network(fanout + 1)
    dsts = [f"n{index}" for index in range(1, fanout + 1)]

    def issue(batch: int) -> None:
        for _ in range(batch):
            net.multicast("n0", dsts, None, size_bytes=64)

    return lambda count: _batched(count, issue, sim.run_until_idle)


def rpc_rung() -> Rung:
    """A ``request``/``reply`` of a 1 KiB message between two endpoints."""
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001))
    client = CommunicationObject(sim, net, "client")
    server = CommunicationObject(sim, net, "server")
    server.set_handler(
        lambda src, message: server.reply(
            src, message.reply("pong", message.body)))
    body = {"data": "x" * 1024}
    pending: List = []

    def issue(batch: int) -> None:
        pending[:] = [
            client.request("server", Message("ping", body))
            for _ in range(batch)
        ]

    def drain() -> None:
        sim.run_until_idle()
        if not all(future.done for future in pending):
            raise RuntimeError("rpc rung: a request went unanswered")

    return lambda count: _batched(count, issue, drain)


def read_rung() -> Rung:
    """``Browser.read_page`` served fresh at one cache, no think time."""
    deployment = build_tree(policy_for("push-update"), n_caches=1,
                            n_readers_per_cache=1, seed=1)
    sim = deployment.sim
    browser = deployment.browsers["reader-0-0"]
    browser.read_page("index.html")
    sim.run_until_idle()  # the cache now holds the page
    pending: List = []

    def issue(batch: int) -> None:
        pending[:] = [browser.read_page("index.html") for _ in range(batch)]

    def drain() -> None:
        sim.run_until_idle()
        for future in pending:
            future.result()

    return lambda count: _batched(count, issue, drain)


def write_rung(replicas: int) -> Rung:
    """One ``push-update`` write pushed to ``replicas`` caches.

    Every repetition writes into a fresh tree (built outside the timed
    region), so the stores' catch-up logs do not grow across repetitions.
    """
    body = page_body(0)

    def rung(count: int) -> float:
        deployment = build_tree(policy_for("push-update"),
                                n_caches=replicas, n_readers_per_cache=0,
                                seed=1)
        sim = deployment.sim
        master = deployment.browsers["master"]
        started = time.perf_counter()
        for _ in range(count):
            future = master.write_page("index.html", body)
            sim.run_until_idle()
            future.result()
        return time.perf_counter() - started

    return rung


# -- runtime rungs ----------------------------------------------------------------


def _reply_frame() -> Dict[str, object]:
    """The frame body of a 1 KiB read reply as the hub forwards it."""
    page = {"name": "page-0.html", "content": "c" * 1024,
            "content_type": "text/html", "version": 3, "last_modified": 1.5}
    message = Message("read_reply", {"result": page,
                                     "version": {"master": 3}}, reply_to=7)
    return {"kind": "data", "body": {
        "src": "cache-0", "dst": "space-reader-0-0", "payload": message,
        "size": message.payload_size(), "reliable": True}}


def codec_rung() -> Rung:
    """``encode_result`` + ``decode_result`` of a 1 KiB read-reply frame."""
    frame = _reply_frame()

    def rung(count: int) -> float:
        started = time.perf_counter()
        for _ in range(count):
            decode_result(encode_result(frame))
        return time.perf_counter() - started

    return rung


def wire_rung(stack: List[Callable[[], None]]) -> Rung:
    """A ``FrameChannel`` echo of that frame over a ``socketpair``."""
    left, right = socket.socketpair()
    near, far = FrameChannel(left), FrameChannel(right)
    body = _reply_frame()["body"]

    def echo() -> None:
        while True:
            frame = far.recv()
            if frame is None:
                return
            far.send(frame[0], **frame[1])

    thread = threading.Thread(target=echo, name="ladder-echo", daemon=True)
    thread.start()

    def close() -> None:
        near.close()
        far.close()
        thread.join(timeout=5.0)

    stack.append(close)

    def rung(count: int) -> float:
        started = time.perf_counter()
        for _ in range(count):
            near.send("data", **body)
            if near.recv() is None:
                raise RuntimeError("wire rung: echo peer went away")
        return time.perf_counter() - started

    return rung


def checkpoint_rung(log_records: int, directory: str) -> Rung:
    """A node's per-frame checkpoint with ``log_records`` logged writes.

    The node's own construction, rebuilt from public calls on an
    in-process engine: encode ``{"engine": checkpoint(), "state":
    snapshot_state()}``, write a temp file, ``os.replace`` it.
    """
    deployment = build_tree(policy_for("push-update"), n_caches=1,
                            n_readers_per_cache=0, seed=1)
    master = deployment.browsers["master"]
    for index in range(log_records):
        master.write_page(f"page-{index % 10}.html", page_body(index))
    deployment.sim.run_until_idle()
    engine = deployment.server.engine
    if len(engine.log) != log_records:
        raise RuntimeError("checkpoint rung: unexpected log length")
    path = os.path.join(directory, f"ladder-{log_records}.ckpt")

    def rung(count: int) -> float:
        started = time.perf_counter()
        for _ in range(count):
            blob = encode_result({"engine": engine.checkpoint(),
                                  "state": engine.snapshot_state()})
            with open(path + ".tmp", "wb") as fh:
                fh.write(blob)
            os.replace(path + ".tmp", path)
        return time.perf_counter() - started

    return rung


def ping_rung(stack: List[Callable[[], None]]) -> Rung:
    """``hub.call(node, "ping")`` against one live node process."""
    run_dir = make_run_dir()
    backend = SocketBackend(seed=1, latency=0.0, run_dir=run_dir)

    def close() -> None:
        backend.stop()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    stack.append(close)
    build_tree(policy_for("push-update"), n_caches=0, seed=1, backend=backend)

    def rung(count: int) -> float:
        started = time.perf_counter()
        for _ in range(count):
            if backend.hub.call("server", "ping") != "pong":
                raise RuntimeError("ping rung: unexpected reply")
        return time.perf_counter() - started

    return rung


# -- rung sets --------------------------------------------------------------------


def run_rungs(workload: str, floor_s: float, scratch: str) -> Dict[str, float]:
    """The ladder metrics reported under ``workload`` (name -> value).

    ``*_ns`` rungs are nanoseconds, ``*_us`` rungs microseconds per unit.
    ``scratch`` is a directory the checkpoint rungs may write into.
    """
    cleanup: List[Callable[[], None]] = []
    try:
        if workload == "sim_read_heavy":
            rungs = {
                "sim.event_ns": (event_rung(), 1e9),
                "net.send_ns": (send_rung(), 1e9),
                "comm.rpc_ns": (rpc_rung(), 1e9),
                "replication.read_ns": (read_rung(), 1e9),
            }
        elif workload == "sim_write_fanout":
            rungs = {
                "net.multicast_ns_per_dst": (
                    multicast_rung(FANOUT), 1e9 / FANOUT),
                "replication.write_ns_per_replica": (
                    write_rung(REPLICAS), 1e9 / REPLICAS),
            }
        elif workload == "socket_mixed":
            os.makedirs(scratch, exist_ok=True)
            rungs = {
                "runtime.codec_frame_us": (codec_rung(), 1e6),
                "runtime.wire_roundtrip_us": (wire_rung(cleanup), 1e6),
                "runtime.checkpoint_us_log0": (
                    checkpoint_rung(0, scratch), 1e6),
                "runtime.checkpoint_us_log800": (
                    checkpoint_rung(800, scratch), 1e6),
                "runtime.rpc_ping_us": (ping_rung(cleanup), 1e6),
            }
        else:
            rungs = {}
        return {name: measure(rung, floor_s) * scale
                for name, (rung, scale) in rungs.items()}
    finally:
        for close in reversed(cleanup):
            close()
        shutil.rmtree(scratch, ignore_errors=True)
