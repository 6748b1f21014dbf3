"""Process supervision for socket store nodes.

The hub delegates process lifecycle to a :class:`NodeSupervisor`: it
writes each node's spec file (a protocol-5 pickle), spawns ``python -m
repro.runtime.node`` children, SIGKILLs them on :class:`CrashNode`
(and *reaps* them, so no zombies linger for the CI process-leak check),
re-spawns them with ``--restore`` on :class:`RestartNode`, and tears
everything down -- terminate, then kill -- at shutdown.

Node stderr/stdout streams into per-node log files (``<name>.log``,
append mode so a restart continues the same file); the directory
defaults to the run directory and can be redirected with the
``REPRO_SOCKET_LOG_DIR`` environment variable, which the CI soak job
uses to upload node logs on failure.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
from typing import IO, Any, Dict, List

from repro.runtime.wire import Address, format_address


class NodeSupervisor:
    """Spawn, kill, restart and reap ``repro.runtime.node`` processes."""

    def __init__(
        self,
        run_dir: str,
        hub_address: Address,
    ) -> None:
        self.run_dir = run_dir
        self.hub_address = hub_address
        self.log_dir = os.environ.get("REPRO_SOCKET_LOG_DIR") or run_dir
        os.makedirs(self.run_dir, exist_ok=True)
        os.makedirs(self.log_dir, exist_ok=True)
        self._procs: Dict[str, subprocess.Popen] = {}
        self._logs: Dict[str, IO[bytes]] = {}

    # -- paths ---------------------------------------------------------------

    def _slug(self, name: str) -> str:
        return name.replace("/", "_")

    def spec_path(self, name: str) -> str:
        """Where ``name``'s pickled node spec lives."""
        return os.path.join(self.run_dir, f"{self._slug(name)}.spec")

    def checkpoint_path(self, name: str) -> str:
        """Where ``name`` keeps its snapshot; its journal sits beside it."""
        return os.path.join(self.run_dir, f"{self._slug(name)}.ckpt")

    def journal_path(self, name: str) -> str:
        """Where ``name`` appends the deltas since that snapshot."""
        return self.checkpoint_path(name) + ".journal"

    def log_path(self, name: str) -> str:
        """Where ``name``'s stdout/stderr is captured."""
        return os.path.join(self.log_dir, f"{self._slug(name)}.log")

    def write_spec(self, name: str, spec: Dict[str, Any]) -> str:
        """Persist the node spec; returns its path."""
        path = self.spec_path(name)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(spec, 5))
        return path

    # -- lifecycle -----------------------------------------------------------

    def build_argv(self, name: str, restore: bool = False) -> List[str]:
        """The child-process command line for ``name``."""
        argv = [
            sys.executable,
            "-m",
            "repro.runtime.node",
            "--hub",
            format_address(self.hub_address),
            "--node",
            name,
            "--spec",
            self.spec_path(name),
        ]
        if restore:
            argv.append("--restore")
        return argv

    def spawn(self, name: str, restore: bool = False) -> subprocess.Popen:
        """Start the child process for ``name`` (spec must be written).

        ``restore=True`` tells the node to load its snapshot and replay
        its journal so the re-spawned process resumes as the same replica.
        """
        argv = self.build_argv(name, restore=restore)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        log = self._logs.get(name)
        if log is None or log.closed:
            log = open(self.log_path(name), "ab")
            self._logs[name] = log
        proc = subprocess.Popen(
            argv,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=self.run_dir,
        )
        self._procs[name] = proc
        return proc

    def pid(self, name: str) -> int:
        """PID of ``name``'s current process (KeyError if never spawned)."""
        return self._procs[name].pid

    def kill(self, name: str) -> int:
        """SIGKILL ``name``'s process and reap it; returns the dead PID.

        After this returns, ``os.kill(pid, 0)`` raises
        ``ProcessLookupError`` -- the process is gone, not a zombie.
        """
        proc = self._procs[name]
        try:
            proc.send_signal(signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        return proc.pid

    def live_pids(self) -> Dict[str, int]:
        """Name -> PID for every child still running."""
        return {
            name: proc.pid
            for name, proc in self._procs.items()
            if proc.poll() is None
        }

    def shutdown(self, grace: float = 2.0) -> None:
        """Stop every child: SIGTERM, wait up to ``grace``, then SIGKILL.

        Every child is reaped and every log handle closed; the supervisor
        leaves no orphan processes behind.
        """
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        for proc in self._procs.values():
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
        for log in self._logs.values():
            if not log.closed:
                log.close()
        self._logs.clear()
