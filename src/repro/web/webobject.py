"""The developer-facing Web-object facade.

:class:`WebObject` packages a :class:`~repro.web.document.WebDocument` with
a :class:`~repro.replication.policy.ReplicationPolicy` into a distributed
shared object, names its stores in Web terms (servers, mirrors, caches) and
hands out :class:`Browser` stubs.  This is the API the examples and
experiments use.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.coherence.models import SessionGuarantee
from repro.coherence.trace import TraceRecorder
from repro.core.dso import BoundClient, DistributedSharedObject, Store
from repro.core.stub import Stub
from repro.replication.policy import ReplicationPolicy
from repro.sim.future import Future
from repro.transport.interface import Clock, Transport
from repro.web.document import WebDocument


class Browser:
    """Typed client stub for Web documents.

    Every method returns a :class:`~repro.sim.future.Future`; workload
    processes ``yield`` them.
    """

    def __init__(self, bound: BoundClient) -> None:
        self.bound = bound
        self._stub: Stub = bound.stub

    @property
    def client_id(self) -> str:
        """The browser's client identity."""
        return self._stub.client_id

    @property
    def session(self):
        """Session state (client-based coherence context)."""
        return self.bound.session

    def read_page(self, name: str, weight: int = 1) -> Future:
        """Fetch one page; resolves with the page dict.

        ``weight`` marks this read as standing in for that many identical
        cohort members (see :mod:`repro.workload.cohort`): the protocol
        serves one request, but traces and metrics count ``weight`` reads.
        """
        return self._stub.read("read_page", name, weight=weight)

    def write_page(self, name: str, content: str,
                   content_type: str = "text/html") -> Future:
        """Create or replace a page; resolves with the write's WiD."""
        return self._stub.write(
            "write_page", name, content, content_type=content_type
        )

    def append_to_page(self, name: str, text: str) -> Future:
        """Incrementally extend a page; resolves with the write's WiD."""
        return self._stub.write("append_to_page", name, text)

    def delete_page(self, name: str) -> Future:
        """Remove a page; resolves with the write's WiD."""
        return self._stub.write("delete_page", name)

    def list_pages(self) -> Future:
        """Resolves with the sorted page-name list."""
        return self._stub.read("list_pages")


class WebObject:
    """One replicated Web document with its own coherence strategy."""

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        policy: Optional[ReplicationPolicy] = None,
        pages: Optional[Dict[str, str]] = None,
        object_id: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
        designated_writer: Optional[str] = None,
        reliable_transport: bool = True,
        store_factory: Optional[Callable] = None,
    ) -> None:
        self.sim = sim
        document = WebDocument(pages=pages, clock=lambda: sim.now)
        self.dso = DistributedSharedObject(
            sim=sim,
            network=network,
            semantics=document,
            policy=policy,
            object_id=object_id,
            trace=trace,
            designated_writer=designated_writer,
            reliable_transport=reliable_transport,
            store_factory=store_factory,
        )

    @property
    def trace(self) -> TraceRecorder:
        """The object's shared execution trace."""
        return self.dso.trace

    @property
    def policy(self) -> ReplicationPolicy:
        """The object's replication strategy."""
        return self.dso.policy

    @property
    def object_id(self) -> str:
        """The object's handle in the name service."""
        return self.dso.object_id

    # -- deployment -------------------------------------------------------------

    def create_server(self, address: str) -> Store:
        """A Web server: permanent store (first call creates the primary)."""
        return self.dso.create_permanent_store(address)

    def create_mirror(self, address: str, parent: Optional[str] = None) -> Store:
        """A mirror site: object-initiated store."""
        return self.dso.create_mirror(address, parent=parent)

    def create_cache(self, address: str, parent: Optional[str] = None) -> Store:
        """A proxy/browser cache: client-initiated store."""
        return self.dso.create_cache(address, parent=parent)

    def bind_browser(
        self,
        address: str,
        client_id: str,
        read_store: Optional[str] = None,
        write_store: Optional[str] = None,
        guarantees: Iterable[SessionGuarantee] = (),
        request_timeout: Optional[float] = None,
        request_retries: int = 0,
    ) -> Browser:
        """Bind a browser to the document and return the typed stub."""
        bound = self.dso.bind(
            address=address,
            client_id=client_id,
            read_store=read_store,
            write_store=write_store,
            guarantees=guarantees,
            request_timeout=request_timeout,
            request_retries=request_retries,
        )
        return Browser(bound)

    # -- introspection ------------------------------------------------------------

    def stores(self) -> List[Store]:
        """All stores, in creation order."""
        return list(self.dso.stores.values())

    def store_states(self) -> Dict[str, Dict[str, object]]:
        """Every store's page snapshot (convergence checks)."""
        return self.dso.store_states()
