"""repro: A Framework for Consistent, Replicated Web Objects.

Reproduction of Kermarrec, Kuz, van Steen & Tanenbaum (ICDCS 1998): Web
documents as distributed shared objects with per-object pluggable
replication and coherence.

Quickstart
----------
>>> from repro import (
...     Simulator, Network, WebObject, ReplicationPolicy, CoherenceModel,
... )
>>> sim = Simulator(seed=1)
>>> net = Network(sim)
>>> site = WebObject(sim, net, policy=ReplicationPolicy(
...     model=CoherenceModel.PRAM))
>>> server = site.create_server("server")
>>> cache = site.create_cache("cache")
>>> master = site.bind_browser("master-space", "master",
...     read_store="cache", write_store="server")
>>> fut = master.write_page("index.html", "<h1>hello</h1>")
>>> _ = sim.run_until_idle()
>>> fut.result().seqno
1
"""

from repro.coherence.models import CoherenceModel, SessionGuarantee
from repro.coherence.session import SessionState
from repro.coherence.trace import TraceRecorder
from repro.coherence.vector_clock import VectorClock
from repro.core.dso import BoundClient, DistributedSharedObject, Store
from repro.core.ids import WriteId
from repro.core.interfaces import Role, SemanticsObject
from repro.naming.service import NameService
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.replication.client import ReplicaError
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    Propagation,
    ReplicationPolicy,
    StoreScope,
    TransferInitiative,
    TransferInstant,
    WriteSet,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Delay, Process, WaitFor
from repro.web.document import WebDocument
from repro.web.page import Page, PageNotFound
from repro.web.webobject import Browser, WebObject

__version__ = "1.0.0"

__all__ = [
    "AccessTransfer",
    "BoundClient",
    "Browser",
    "CoherenceModel",
    "CoherenceTransfer",
    "ConstantLatency",
    "Delay",
    "DistributedSharedObject",
    "NameService",
    "Network",
    "OutdateReaction",
    "Page",
    "PageNotFound",
    "Process",
    "Propagation",
    "ReplicaError",
    "ReplicationPolicy",
    "Role",
    "SemanticsObject",
    "SessionGuarantee",
    "SessionState",
    "Simulator",
    "Store",
    "StoreScope",
    "TraceRecorder",
    "TransferInitiative",
    "TransferInstant",
    "UniformLatency",
    "VectorClock",
    "WaitFor",
    "WebDocument",
    "WebObject",
    "WriteId",
    "WriteSet",
]
