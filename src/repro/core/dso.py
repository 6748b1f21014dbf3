"""Distributed shared objects: assembly and binding.

A :class:`DistributedSharedObject` is the unit the paper proposes: one Web
document, physically distributed, encapsulating its own replication policy.
This module assembles the per-address-space local objects (stores and
clients), wires the Fig. 2 hierarchy, registers contact points with the
name service, and implements :meth:`DistributedSharedObject.bind`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional

from repro.coherence.models import SessionGuarantee
from repro.coherence.trace import TraceRecorder
from repro.core.ids import ObjectId, fresh_object_id
from repro.core.interfaces import Role, SemanticsObject
from repro.core.local_object import LocalObject
from repro.core.stub import Stub
from repro.naming.service import NameService
from repro.replication.client import ClientReplicationObject
from repro.replication.engine import StoreReplicationObject
from repro.replication.policy import PolicyError, ReplicationPolicy
from repro.transport.interface import Clock, Transport


class BindError(RuntimeError):
    """Raised when a client cannot be bound to the object."""


@dataclasses.dataclass
class Store:
    """A store-side local object plus its replication engine."""

    local: LocalObject
    engine: StoreReplicationObject

    @property
    def address(self) -> str:
        """Network address of the store's address space."""
        return self.local.address

    @property
    def role(self) -> Role:
        """Store layer (permanent / object-initiated / client-initiated)."""
        return self.local.role

    def version(self) -> Dict[str, int]:
        """Applied version vector."""
        return self.engine.version()

    def state(self) -> Dict[str, object]:
        """Semantics snapshot (convergence checks)."""
        return self.engine.snapshot_state()

    def sync_full(self) -> None:
        """Demand a full-state transfer from the parent (initial mirror sync)."""
        self.engine.reads.demand(want_full=True)


@dataclasses.dataclass
class BoundClient:
    """A client-side local object plus its stub."""

    local: LocalObject
    stub: Stub
    replication: ClientReplicationObject

    @property
    def address(self) -> str:
        """Network address of the client's address space."""
        return self.local.address

    @property
    def session(self):
        """The client's session state (client-based coherence context)."""
        return self.replication.session


class DistributedSharedObject:
    """One replicated Web object: policy + semantics + all its replicas.

    Parameters
    ----------
    sim, network:
        Substrate the object lives on: any :class:`~repro.transport.
        interface.Clock` / :class:`~repro.transport.interface.Transport`
        pair (simulated or wall-clock).
    semantics:
        Prototype semantics object; the first permanent store adopts it,
        replicas get :meth:`SemanticsObject.fresh` copies.
    policy:
        Per-object replication strategy (the framework's whole point).
    designated_writer:
        Under a single write set, the only client allowed to write.
    reliable_transport:
        ``False`` switches every local object to the UDP-like transport.
    store_factory:
        Optional hook ``factory(dso, address, role, parent) -> Store``
        that builds stores in another address space (the socket backend
        spawns a node process and returns an RPC-proxied Store); when
        ``None``, stores are assembled in-process as always.
    """

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        semantics: SemanticsObject,
        policy: Optional[ReplicationPolicy] = None,
        object_id: Optional[ObjectId] = None,
        trace: Optional[TraceRecorder] = None,
        designated_writer: Optional[str] = None,
        reliable_transport: bool = True,
        store_factory: Optional[Callable] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.semantics_prototype = semantics
        self.policy = (policy or ReplicationPolicy()).validate()
        self.object_id = object_id or fresh_object_id()
        self.trace = trace if trace is not None else TraceRecorder()
        self.names = NameService()
        self.designated_writer = designated_writer
        self.reliable_transport = reliable_transport
        self.store_factory = store_factory
        self.stores: Dict[str, Store] = {}
        self.clients: List[BoundClient] = []
        self.primary: Optional[Store] = None

    # -- store construction ---------------------------------------------------

    def create_permanent_store(self, address: str) -> Store:
        """Create a permanent store; the first one becomes the primary."""
        parent = self.primary.address if self.primary is not None else None
        store = self._make_store(address, Role.PERMANENT, parent)
        if self.primary is None:
            self.primary = store
        else:
            store.sync_full()
        self.names.register(self.object_id, address)
        return store

    def create_mirror(self, address: str, parent: Optional[str] = None) -> Store:
        """Create an object-initiated store (mirror) under ``parent``."""
        parent = parent or self._require_primary().address
        store = self._make_store(address, Role.OBJECT_INITIATED, parent)
        store.sync_full()
        self.names.register(self.object_id, address)
        return store

    def create_cache(self, address: str, parent: Optional[str] = None) -> Store:
        """Create a client-initiated store (cache) under ``parent``.

        Caches start empty and fill on demand, as the paper's example does.
        """
        parent = parent or self._require_primary().address
        return self._make_store(address, Role.CLIENT_INITIATED, parent)

    def _make_store(self, address: str, role: Role, parent: Optional[str]) -> Store:
        if address in self.stores:
            raise BindError(f"address {address} already hosts a store")
        if self.store_factory is not None:
            store = self.store_factory(self, address, role, parent)
        else:
            if role is Role.PERMANENT and self.primary is None:
                semantics = self.semantics_prototype
            else:
                semantics = self.semantics_prototype.fresh()
            engine = StoreReplicationObject(
                policy=self.policy,
                role=role,
                parent=parent,
                trace=self.trace,
                allowed_writer=self.designated_writer,
            )
            local = LocalObject(
                sim=self.sim,
                network=self.network,
                address=address,
                role=role,
                replication=engine,
                semantics=semantics,
                reliable_transport=self.reliable_transport,
            )
            local.start()
            store = Store(local=local, engine=engine)
        self.stores[address] = store
        if parent is not None and parent in self.stores:
            self.stores[parent].engine.subscribe_child(address)
        return store

    def _require_primary(self) -> Store:
        if self.primary is None:
            raise BindError(
                f"object {self.object_id} has no permanent store yet"
            )
        return self.primary

    def set_policy(self, policy: ReplicationPolicy) -> None:
        """Swap the object's policy for ``policy`` at every replica.

        Every store adopts it through
        :meth:`StoreReplicationObject.set_policy`, which refuses a change
        of coherence model or store scope (then nothing is swapped), and
        every bound client holds it.  A store in another process cannot
        adopt it, so with any such store this raises :class:`PolicyError`
        naming them and swaps nothing.
        """
        remote = [name for name, store in sorted(self.stores.items())
                  if not isinstance(store.engine, StoreReplicationObject)]
        if remote:
            raise PolicyError("cannot swap the policy of stores in another "
                              f"process: {', '.join(remote)}")
        for store in self.stores.values():
            store.engine.set_policy(policy)
        for client in self.clients:
            client.replication.policy = policy
        self.policy = policy

    # -- binding ---------------------------------------------------------------

    def bind(
        self,
        address: str,
        client_id: str,
        read_store: Optional[str] = None,
        write_store: Optional[str] = None,
        guarantees: Iterable[SessionGuarantee] = (),
        request_timeout: Optional[float] = None,
        request_retries: int = 0,
    ) -> BoundClient:
        """Bind a client address space to the object; returns the stub.

        Defaults resolve the read store through the name service (first
        contact) and send writes to the primary permanent store, matching
        the paper's example where the master writes directly to the web
        server.
        """
        self._require_primary()
        if read_store is None:
            read_store = self.names.resolve(self.object_id)[0]
        if write_store is None:
            write_store = self._require_primary().address
        for target in (read_store, write_store):
            if target not in self.stores:
                raise BindError(f"{target} is not a store of {self.object_id}")
        replication = ClientReplicationObject(
            client_id=client_id,
            read_store=read_store,
            write_store=write_store,
            policy=self.policy,
            guarantees=guarantees,
            trace=self.trace,
            request_timeout=request_timeout,
            request_retries=request_retries,
        )
        local = LocalObject(
            sim=self.sim,
            network=self.network,
            address=address,
            role=Role.CLIENT,
            replication=replication,
            semantics=None,
            reliable_transport=self.reliable_transport,
        )
        local.start()
        stub = Stub(local.control, client_id)
        bound = BoundClient(local=local, stub=stub, replication=replication)
        self.clients.append(bound)
        return bound

    # -- introspection ------------------------------------------------------------

    def store_states(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every store's semantics state (convergence checks)."""
        return {addr: store.state() for addr, store in self.stores.items()}

    def layers(self) -> Dict[Role, List[str]]:
        """Store addresses grouped by Fig. 2 layer."""
        grouped: Dict[Role, List[str]] = {}
        for address, store in self.stores.items():
            grouped.setdefault(store.role, []).append(address)
        return grouped
