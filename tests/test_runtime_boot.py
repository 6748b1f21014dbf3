"""How a ``live-socket`` deployment boots its node processes.

``SocketHub.spawn_node`` only records a node's spec; ``SocketBackend.
start()`` spawns every recorded node at once and then waits for their
``hello``\\ s, and a store subscribing to a parent not yet booted rides in
the parent's spec instead of costing an RPC.  Checked here against real
processes: the spawn-before-wait order, a build with no ``call`` frame,
pushes reaching every cache, a cache added after ``start()``, a node
that dies before ``hello`` -- and a bare remote demand that, as
in-process, lets the policy choose a snapshot.
"""

import os
import pickle
import sys

import pytest

from repro.coherence.trace import InstallEvent
from repro.replication.policy import CoherenceTransfer, ReplicationPolicy
from repro.runtime.socket import SocketRuntimeError
from repro.transport.backend import SocketBackend
from repro.workload.scenarios import build_tree

SEED = 7


class BootRecorder:
    """Wraps a hub's spawn, ``hello`` wait and frame writes to log them."""

    def __init__(self, hub, monkeypatch):
        self.hub = hub
        self.order = []
        self.procs = []
        self.frames = []
        spawn, await_hello = hub.supervisor.spawn, hub._await_hello
        send = hub.server.send

        def recording_spawn(name, restore=False):
            proc = spawn(name, restore=restore)
            self.order.append(("spawn", name))
            self.procs.append(proc)
            return proc

        def recording_wait(name, proc, deadline):
            self.order.append(("wait", name))
            await_hello(name, proc, deadline)

        def recording_send(channel, kind, **body):
            self.frames.append((kind, body.get("op")))
            send(channel, kind, **body)

        monkeypatch.setattr(hub.supervisor, "spawn", recording_spawn)
        monkeypatch.setattr(hub, "_await_hello", recording_wait)
        monkeypatch.setattr(hub.server, "send", recording_send)

    def calls(self):
        """The ops of every ``call`` frame written so far."""
        return [op for kind, op in self.frames if kind == "call"]


@pytest.fixture()
def backend():
    backend = SocketBackend(seed=SEED, latency=0.0)
    yield backend
    backend.stop()


def build(backend, n_caches=2, start_backend=True):
    return build_tree(
        policy=ReplicationPolicy(),
        n_caches=n_caches,
        n_readers_per_cache=1,
        pages={"index.html": "<h1>boot</h1>"},
        seed=SEED,
        backend=backend,
        start_backend=start_backend,
    )


def write_and_wait(deployment, body, stores):
    """Write ``index.html`` as the master; True once ``stores`` have it."""
    master = deployment.browsers["master"]
    deployment.wait(deployment.call(master.write_page, "index.html", body),
                    timeout=10.0)
    server = deployment.server
    return deployment.wait_until(
        lambda: all(store.version() == server.version() for store in stores),
        timeout=10.0,
    )


def test_every_node_is_spawned_before_any_hello_is_awaited(backend,
                                                           monkeypatch):
    recorder = BootRecorder(backend.hub, monkeypatch)
    deployment = build(backend)
    names = ["server", "cache-0", "cache-1"]
    assert recorder.order == ([("spawn", name) for name in names]
                              + [("wait", name) for name in names])
    # The caches' subscriptions rode in the server's spec: no RPC at all.
    assert recorder.calls() == []
    with open(backend.hub.supervisor.spec_path("server"), "rb") as fh:
        assert pickle.loads(fh.read())["children"] == ["cache-0", "cache-1"]
    assert write_and_wait(deployment, "<h1>pushed</h1>", deployment.caches)


def test_nothing_is_spawned_before_start(backend, monkeypatch):
    recorder = BootRecorder(backend.hub, monkeypatch)
    deployment = build(backend, start_backend=False)
    assert recorder.order == []
    deployment.backend.start()
    assert [step for step, _ in recorder.order] == ["spawn"] * 3 + ["wait"] * 3


def test_a_cache_created_after_start_subscribes_over_rpc(backend,
                                                         monkeypatch):
    deployment = build(backend, n_caches=1)
    recorder = BootRecorder(backend.hub, monkeypatch)
    late = deployment.site.create_cache("cache-late", parent="server")
    assert recorder.calls() == ["subscribe_child"]
    # The subscription's RPC booted the new node on its way.
    assert recorder.order == [("spawn", "cache-late"), ("wait", "cache-late")]
    assert write_and_wait(deployment, "<h1>next push</h1>", [late])


def test_a_node_dying_before_hello_fails_the_build_cleanly(backend,
                                                           monkeypatch):
    recorder = BootRecorder(backend.hub, monkeypatch)
    supervisor = backend.hub.supervisor
    build_argv = supervisor.build_argv

    def argv(name, restore=False):
        if name == "cache-1":
            return [sys.executable, "-c", "import sys; sys.exit(3)"]
        return build_argv(name, restore=restore)

    monkeypatch.setattr(supervisor, "build_argv", argv)
    log = supervisor.log_path("cache-1")
    with pytest.raises(SocketRuntimeError) as error:
        build(backend)
    message = str(error.value)
    assert "'cache-1' exited with status 3" in message and log in message
    # Every node of the failed boot is gone and reaped: no orphan, and
    # no zombie for anyone else to collect.
    assert len(recorder.procs) == 3
    for proc in recorder.procs:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)
    assert backend.hub.registry.names() == []


@pytest.mark.parametrize("substrate", ["sim", "live-socket"])
def test_a_bare_demand_lets_the_policy_choose_a_snapshot(substrate):
    deployment = build_tree(
        policy=ReplicationPolicy(coherence_transfer=CoherenceTransfer.FULL),
        n_caches=1,
        n_readers_per_cache=0,
        pages={"index.html": "<h1>full</h1>"},
        seed=SEED,
        backend=substrate,
    )
    try:
        events = deployment.site.dso.trace.events
        deployment.caches[0].engine.reads.demand()
        assert deployment.wait_until(
            lambda: any(isinstance(event, InstallEvent)
                        and event.store == "cache-0" for event in events),
            timeout=5.0,
        )
    finally:
        deployment.shutdown()
