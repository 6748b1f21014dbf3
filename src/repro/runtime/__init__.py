"""Live runtimes: wall-clock threads (S16) and multi-process sockets.

The same protocol code that runs on the deterministic simulator can run
on real threads and real time: :class:`LiveLoop` implements the
:class:`~repro.sim.kernel.Simulator` scheduling interface against a
wall-clock timer thread, and :class:`LiveNetwork` implements the
:class:`~repro.net.network.Network` delivery interface over in-process
queues with optional injected latency.

The socket runtime takes the next step to real *processes*: every store
node runs in its own OS process (:mod:`repro.runtime.node`), frames are
length-prefixed pickled envelopes over Unix/TCP sockets, read and written
by one thread per process (:mod:`repro.runtime.wire`), one
:class:`FrameServer` (accept, ``hello``, handler table, heartbeat
:class:`Registry`, teardown) serves the store hub and the sweep hub, and
the store hub (:mod:`repro.runtime.socket`) routes all traffic through
one fault-controllable network.  This is the paper's Java-over-TCP
prototype shape for real: CrashNode SIGKILLs a process, RestartNode
re-spawns it from its snapshot + journal.
"""

from repro.runtime.live import LiveLoop, LiveNetwork
from repro.runtime.registry import NodeEntry, Registry
from repro.runtime.server import FrameServer
from repro.runtime.supervisor import NodeSupervisor
from repro.runtime.wire import FrameChannel, WireError, connect_with_backoff

__all__ = [
    "FrameChannel",
    "FrameServer",
    "LiveLoop",
    "LiveNetwork",
    "NodeEntry",
    "NodeSupervisor",
    "Registry",
    "WireError",
    "connect_with_backoff",
]
