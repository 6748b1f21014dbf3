"""Process-kill fault semantics on the socket backend.

On ``backend="live-socket"`` the fault plan grows real teeth: CrashNode
SIGKILLs the store's OS process and RestartNode re-spawns it from its
snapshot + journal.  These tests assert (a) the process-level mechanics
-- the PID actually dies, the registry notices, the restart produces a
new process that re-attaches -- (b) the durability contract: a replica
SIGKILLed between two journal records, or right after a compaction,
comes back with the version, counters and pages it had, and a node that
cannot read its snapshot fails the restart at once -- and (c) the
semantics: the replayed X12 scenario must produce the same drop counters
and the same time-free coherence signature as the in-process thread
backend, byte-pinned by ``tests/golden/fault_smoke_signature.json``.

The full scenario runs under a hard wall-clock alarm so a hung heal or
restart fails the test instead of stalling the suite.
"""

import json
import os
import pickle
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.faults.scenario import fault_smoke_point
from repro.replication.policy import ReplicationPolicy
from repro.runtime.socket import SocketRuntimeError
from repro.transport.backend import SocketBackend
from repro.workload.scenarios import build_tree

SEED = 7

GOLDEN = Path(__file__).parent / "golden" / "fault_smoke_signature.json"

#: Hard wall-clock budget for one full X12 scenario run (seconds).  The
#: scenario itself finishes in ~2s; the margin covers loaded CI workers.
SOAK_BUDGET = 120


@contextmanager
def wall_clock_deadline(seconds):
    """Raise ``TimeoutError`` if the body runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"fault soak exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def canonical(signature):
    """JSON round-trip: tuples become lists, keys sort stably."""
    return json.loads(json.dumps(signature, sort_keys=True))


class TestProcessKillMechanics:
    """CrashNode/RestartNode against real PIDs, driven directly."""

    @pytest.fixture()
    def deployment(self):
        deployment = build_tree(
            policy=ReplicationPolicy(),
            n_caches=2,
            n_readers_per_cache=1,
            pages={"index.html": "<h1>faults</h1>"},
            seed=SEED,
            backend="live-socket",
            request_timeout=0.5,
        )
        yield deployment
        deployment.shutdown()

    def test_crash_node_sigkills_the_real_process(self, deployment):
        hub = deployment.backend.hub
        victim = "cache-1"
        pid = hub.node_pid(victim)
        os.kill(pid, 0)  # alive before the fault
        deployment.network.crash_node(victim)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        assert victim not in hub.registry.names()
        assert hub.channel_for(victim) is None

    def test_traffic_into_crashed_node_is_counted_dropped(self, deployment):
        victim = "cache-1"
        deployment.network.crash_node(victim)
        before = deployment.network.stats.datagrams_dropped_crashed
        master = deployment.browsers["master"]
        future = deployment.call(master.write_page, "index.html", "<h1>w</h1>")
        deployment.wait(future, timeout=10.0)
        assert deployment.wait_until(
            lambda: deployment.network.stats.datagrams_dropped_crashed
            > before,
            timeout=10.0,
        ), "propagation toward the dead process must count as crash-dropped"

    def test_restart_respawns_new_pid_and_reattaches(self, deployment):
        hub = deployment.backend.hub
        victim = "cache-1"
        old_pid = hub.node_pid(victim)
        deployment.network.crash_node(victim)
        deployment.network.restart_node(victim)
        new_pid = hub.node_pid(victim)
        assert new_pid != old_pid
        os.kill(new_pid, 0)
        assert victim in hub.registry.names()
        assert hub.registry.alive(victim, now=time.monotonic())

    def test_restarted_replica_recovers_from_checkpoint(self, deployment):
        victim = "cache-1"
        master = deployment.browsers["master"]
        future = deployment.call(master.write_page, "index.html", "<h1>1</h1>")
        deployment.wait(future, timeout=10.0)
        assert deployment.wait_until(
            lambda: all(
                engine.version().get("master", 0) == 1
                for engine in deployment.engines
            ),
            timeout=10.0,
        )
        deployment.network.crash_node(victim)
        # A write while the replica is down is dropped toward it.
        future = deployment.call(master.write_page, "index.html", "<h1>2</h1>")
        deployment.wait(future, timeout=10.0)
        deployment.network.restart_node(victim)
        engine = deployment.site.dso.stores[victim].engine
        # The checkpointed state survived the SIGKILL...
        assert engine.version().get("master", 0) >= 1
        # ...and a demand pulls in what the outage dropped.
        engine.reads.demand(want_full=True)
        assert deployment.wait_until(
            lambda: engine.version().get("master", 0) == 2, timeout=10.0
        ), "restarted replica must catch up via demand"


class TestJournalDurability:
    """The snapshot + journal pair against SIGKILLs of real processes."""

    VICTIM = "cache-1"

    @pytest.fixture()
    def deployment(self):
        with wall_clock_deadline(SOAK_BUDGET):
            deployment = build_tree(
                policy=ReplicationPolicy(),
                n_caches=2,
                n_readers_per_cache=1,
                pages={"index.html": "<h1>durable</h1>"},
                seed=SEED,
                backend="live-socket",
                request_timeout=2.0,
            )
            pids = set()
            try:
                pids.update(deployment.backend.hub.supervisor
                            .live_pids().values())
                yield deployment, pids
            finally:
                deployment.shutdown()
        for pid in pids:  # no node process outlives the test
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def files(self, deployment, name=None):
        """(size, mtime_ns) of a node's snapshot and journal."""
        supervisor = deployment.backend.hub.supervisor
        paths = [
            path
            for node in ([name] if name else sorted(deployment.site.dso.stores))
            for path in (supervisor.checkpoint_path(node),
                         supervisor.journal_path(node))
        ]
        return [(os.stat(p).st_size, os.stat(p).st_mtime_ns) for p in paths]

    def observe(self, deployment):
        """The victim's durable state, read through three no-op calls.

        Each call is handled after the persist of every earlier frame,
        so it doubles as the barrier the send-then-persist order needs.
        """
        engine = deployment.site.dso.stores[self.VICTIM].engine
        return (engine.version(), engine.counters(), engine.snapshot_state())

    def read_at_victim(self, deployment):
        reader = deployment.browsers["reader-1-0"]
        deployment.wait(deployment.call(reader.read_page, "index.html"),
                        timeout=10.0)

    def kill_and_restart(self, deployment, pids):
        deployment.network.crash_node(self.VICTIM)
        deployment.network.restart_node(self.VICTIM)
        pids.add(deployment.backend.hub.node_pid(self.VICTIM))

    def test_kill_between_journal_records_loses_nothing(self, deployment):
        deployment, pids = deployment
        master = deployment.browsers["master"]
        deployment.wait(deployment.call(
            master.write_page, "index.html", "<h1>" + "x" * 4096 + "</h1>"),
            timeout=10.0)
        for _ in range(200):
            self.read_at_victim(deployment)
            before = self.observe(deployment)
            if self.files(deployment, self.VICTIM)[1][0] > 0:
                break
        else:
            pytest.fail("the journal never held a record")
        assert before[0] == {"master": 1}
        assert "x" * 4096 in before[2]["index.html"]["content"]
        self.kill_and_restart(deployment, pids)
        assert self.observe(deployment) == before

    def test_kill_right_after_a_compaction_loses_nothing(self, deployment):
        deployment, pids = deployment
        self.read_at_victim(deployment)
        snapshot_stamp = self.files(deployment, self.VICTIM)[0]
        for _ in range(400):
            self.read_at_victim(deployment)
            before = self.observe(deployment)
            snapshot, journal = self.files(deployment, self.VICTIM)
            if snapshot != snapshot_stamp and journal[0] == 0:
                break  # this very frame rewrote the snapshot
            snapshot_stamp = snapshot
        else:
            pytest.fail("the journal was never folded into a snapshot")
        assert before[1]["rx:read"] >= 2
        self.kill_and_restart(deployment, pids)
        assert self.observe(deployment) == before
        # The restarted replica keeps serving and journalling.
        self.read_at_victim(deployment)
        after = self.observe(deployment)
        assert after[1]["rx:read"] == before[1]["rx:read"] + 1

    def test_pings_touch_neither_file(self, deployment):
        deployment, _ = deployment
        hub = deployment.backend.hub
        before = self.files(deployment)
        for _ in range(200):
            assert hub.call(self.VICTIM, "ping") == "pong"
        assert self.files(deployment) == before

    def test_unreadable_snapshot_fails_the_restart_at_once(self, deployment):
        deployment, _ = deployment
        hub = deployment.backend.hub
        deployment.network.crash_node(self.VICTIM)
        with open(hub.supervisor.checkpoint_path(self.VICTIM), "wb") as fh:
            fh.write(b"not a snapshot")
        started = time.monotonic()
        with pytest.raises(SocketRuntimeError, match="exited with status 1"):
            hub.restart_node(self.VICTIM)
        assert time.monotonic() - started < hub.server.hello_timeout / 2
        with open(hub.supervisor.log_path(self.VICTIM)) as fh:
            log = fh.read()
        assert "cannot restore: unreadable snapshot" in log
        assert "Traceback" not in log

    def test_fresh_spawn_into_a_used_run_dir_ignores_old_files(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        for name in ("server", "cache-0"):
            for suffix in (".ckpt", ".ckpt.journal"):
                with open(os.path.join(run_dir, name + suffix), "wb") as fh:
                    fh.write(b"left behind by an earlier run" * 10)
        with wall_clock_deadline(SOAK_BUDGET):
            deployment = build_tree(
                policy=ReplicationPolicy(),
                n_caches=1,
                n_readers_per_cache=1,
                pages={"index.html": "<h1>new run</h1>"},
                seed=SEED,
                backend=SocketBackend(seed=SEED, latency=0.0,
                                      run_dir=run_dir),
            )
            try:
                supervisor = deployment.backend.hub.supervisor
                for name in ("server", "cache-0"):
                    with open(supervisor.checkpoint_path(name), "rb") as fh:
                        assert pickle.loads(fh.read())["epoch"] == 1
                    with open(supervisor.journal_path(name), "rb") as fh:
                        assert b"left behind" not in fh.read()
            finally:
                deployment.shutdown()


class TestFaultSoakParity:
    """The scripted X12 scenario, replayed with real process kills."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        with wall_clock_deadline(SOAK_BUDGET):
            return {
                backend: fault_smoke_point(
                    {"backend": backend, "seed": SEED}, seed=0
                )
                for backend in ("live", "live-socket")
            }

    def test_scenario_phases_complete(self, outcomes):
        for backend, outcome in outcomes.items():
            assert outcome["converged_initial"], backend
            assert outcome["stale_read_under_partition"], backend
            assert outcome["recovered_after_heal"], backend
            assert outcome["converged_during_crash"], backend
            assert outcome["unavailable_reads"] == 1, backend
            assert outcome["demand_refresh_ok"], backend
            assert outcome["recovered_after_restart"], backend

    def test_drop_counters_match_thread_backend(self, outcomes):
        thread, sock = outcomes["live"], outcomes["live-socket"]
        assert sock["dropped_crashed"] == thread["dropped_crashed"] > 0
        assert sock["dropped_partition"] == thread["dropped_partition"]
        assert sock["unavailable_reads"] == thread["unavailable_reads"]

    def test_final_versions_identical(self, outcomes):
        assert (
            outcomes["live"]["versions"] == outcomes["live-socket"]["versions"]
        )

    def test_signature_matches_pinned_golden(self, outcomes):
        golden = json.loads(GOLDEN.read_text())
        for backend, outcome in outcomes.items():
            assert canonical(outcome["signature"]) == golden, (
                f"{backend}: fault scenario diverged from the golden "
                "signature (tests/golden/fault_smoke_signature.json)"
            )
