"""Deployment builders: whole replicated-web-object systems in one call.

A :class:`Deployment` bundles the runtime backend, network, Web object,
stores and browsers of one experiment so harness code stays declarative.
Builders take a ``backend`` parameter -- ``"sim"`` (deterministic virtual
time, the default) or ``"live"`` (wall-clock threads) -- and assemble the
identical protocol stack on either substrate; driving helpers
(:meth:`Deployment.call`, :meth:`Deployment.wait`, :meth:`Deployment.
run_for`, :meth:`Deployment.settle`) delegate to the backend so scripted
workloads run unchanged on both.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Union

from repro.coherence.models import SessionGuarantee
from repro.core.dso import Store
from repro.net.latency import ConstantLatency, LatencyModel
from repro.replication.policy import ReplicationPolicy
from repro.sim.future import Future
from repro.transport import (
    Backend,
    BackendError,
    LiveBackend,
    SimBackend,
    SocketBackend,
    make_backend,
)
from repro.web.webobject import Browser, WebObject
from repro.workload.cohort import cohort_sizes

#: In-process delivery delay (seconds) of a wall-clock backend that
#: :func:`build_tree` constructs by name.
LIVE_LATENCY = 0.005


@dataclasses.dataclass
class Deployment:
    """One assembled system under test."""

    sim: Any  # the backend's Clock (a Simulator under backend="sim")
    network: Any
    site: WebObject
    server: Store
    mirrors: List[Store]
    caches: List[Store]
    browsers: Dict[str, Browser]
    backend: Optional[Backend] = None
    #: The fault injector driving this run's fault plan, when one is
    #: attached (see :func:`repro.workload.profiles.run_profile`).
    faults: Optional[Any] = None
    #: Cohort weights by client id: each listed browser stands in for
    #: that many identical leaf clients (see :mod:`repro.workload.cohort`).
    cohorts: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Binding parameters per cohort, kept so :meth:`expand_cohort` can
    #: bind individual members with the identical store and request bounds.
    cohort_spec: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def engines(self) -> List[object]:
        """All store replication engines (for traffic collection)."""
        return [s.engine for s in [self.server, *self.mirrors, *self.caches]]

    def store(self, address: str) -> Store:
        """Find a store by address."""
        return self.site.dso.stores[address]

    # -- backend-agnostic driving ---------------------------------------------

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the protocol thread; return its value."""
        return self._backend().call(fn, *args)

    def wait(self, future: Future, timeout: Optional[float] = None) -> Any:
        """Drive the backend until ``future`` resolves; return its result."""
        return self._backend().wait(future, timeout=timeout)

    def run_for(self, seconds: float) -> None:
        """Let ``seconds`` of protocol time elapse (virtual or real)."""
        self._backend().advance(seconds)

    def settle(self, timeout: float = 5.0) -> None:
        """Drive until the protocol is quiescent."""
        self._backend().settle(timeout=timeout)

    def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 5.0
    ) -> bool:
        """Drive until ``predicate()`` holds; ``False`` on timeout."""
        return self._backend().wait_until(predicate, timeout=timeout)

    def shutdown(self) -> None:
        """Stop the backend, then tear down every local object.

        Required for live deployments (the dispatcher is a real thread);
        harmless for simulated ones.  The backend stops *first* so no
        dispatcher callback races the teardown of the very objects it
        would run against -- destroy only cancels timers and unregisters
        handlers, which is safe once no protocol thread is executing.
        """
        if self.backend is not None:
            self.backend.stop()
        for store in self.site.dso.stores.values():
            store.local.destroy()
        for client in self.site.dso.clients:
            client.local.destroy()

    def expand_cohort(self, client_id: str) -> List[Browser]:
        """Bind one browser per member of cohort ``client_id``.

        Called (via :class:`~repro.workload.generator.ReaderWorkload`'s
        ``expand`` hook) when a policy decision diverges within the
        cohort.  Members are named ``<client_id>.<k>``, bound to the same
        store with the same request bounds, and registered in
        :attr:`browsers` so metric collection sees them like any other
        client.
        """
        spec = self.cohort_spec[client_id]
        members: List[Browser] = []
        for member in range(self.cohorts[client_id]):
            member_id = f"{client_id}.{member}"
            browser = self.site.bind_browser(
                f"space-{member_id}",
                member_id,
                read_store=spec["read_store"],
                request_timeout=spec["request_timeout"],
                request_retries=spec["request_retries"],
            )
            self.browsers[member_id] = browser
            members.append(browser)
        return members

    def _backend(self) -> Backend:
        if self.backend is None:
            raise BackendError(
                "this deployment was assembled without a Backend; "
                "rebuild it through build_tree()/conference_deployment()"
            )
        return self.backend


def _resolve_backend(
    backend: Union[str, Backend],
    seed: int,
    latency: Optional[LatencyModel],
    loss_rate: float,
) -> Backend:
    """Resolve the builder's backend argument into a Backend instance.

    A prebuilt :class:`Backend` is used as-is -- its own seed, latency
    and loss settings apply; the builder's are ignored.
    """
    if isinstance(backend, Backend):
        return backend
    if backend == SimBackend.name:
        return make_backend(
            "sim",
            seed=seed,
            latency=latency or ConstantLatency(0.05),
            loss_rate=loss_rate,
        )
    if backend in (LiveBackend.name, SocketBackend.name):
        if latency is not None:
            raise BackendError(
                f"the {backend} backend takes no simulator LatencyModel; "
                "for another delivery delay pass a constructed backend, "
                "e.g. backend=SocketBackend(latency=0.0)"
            )
        return make_backend(backend, seed=seed, latency=LIVE_LATENCY,
                            loss_rate=loss_rate)
    return make_backend(backend)  # raises the canonical unknown-name error


def build_tree(
    policy: ReplicationPolicy,
    n_mirrors: int = 0,
    n_caches: int = 2,
    n_readers_per_cache: int = 1,
    pages: Optional[Dict[str, str]] = None,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    reliable_transport: bool = True,
    designated_writer: Optional[str] = "master",
    master_guarantees=(SessionGuarantee.READ_YOUR_WRITES,),
    backend: Union[str, Backend] = "sim",
    start_backend: bool = True,
    request_timeout: Optional[float] = None,
    request_retries: int = 0,
    scheduler: Optional[str] = None,
    cohort_size: int = 1,
) -> Deployment:
    """Build the canonical Fig. 2 tree.

    One permanent store (``server``); ``n_mirrors`` object-initiated
    stores under it; ``n_caches`` client-initiated stores distributed
    round-robin under the mirrors (or directly under the server when
    there are no mirrors); one master client writing to the server and
    reading from the first cache; ``n_readers_per_cache`` reader clients
    per cache.

    ``scheduler`` is a retired knob kept for callers that still name
    the one event queue: ``None`` and ``"heap"`` are accepted, anything
    else raises :class:`ValueError`.  ``cohort_size`` > 1 collapses the
    readers of each cache into weighted cohorts of (up to) that many
    identical clients: one ``cohort-<cache>-<j>`` browser per group,
    recorded in :attr:`Deployment.cohorts`, whose reads carry the group's
    weight (see :mod:`repro.workload.cohort`).  The default of 1 binds
    every reader individually, exactly as before.

    ``backend`` selects the substrate: ``"sim"`` assembles the system on
    the deterministic simulator, ``"live"`` on the wall-clock runtime
    (with :data:`LIVE_LATENCY` seconds of in-process delivery delay); an
    already constructed :class:`~repro.transport.Backend` is used as-is
    (its own seed/latency/loss settings apply, not the builder's).  The
    live dispatcher is started before this function returns unless
    ``start_backend`` is false (builders that wire more address spaces
    on top pass ``False`` and start the backend themselves); callers own
    the teardown via :meth:`Deployment.shutdown`.

    ``request_timeout`` / ``request_retries`` apply to every browser
    bound here: fault scenarios set them so reads into a crashed store
    fail fast (and count as unavailable) instead of stalling the client.
    """
    if cohort_size < 1:
        raise ValueError(f"cohort_size must be >= 1, got {cohort_size!r}")
    if scheduler not in (None, "heap"):
        raise ValueError(
            f"unknown scheduler {scheduler!r}: the kernel has one event "
            "queue, the binary heap"
        )
    backend_obj = _resolve_backend(backend, seed, latency, loss_rate)
    clock, transport = backend_obj.clock, backend_obj.transport
    # The socket backend owns the deployment's shared trace recorder
    # (node processes stream events into it) and builds stores through a
    # factory that spawns real processes; in-process backends have
    # neither attribute and keep the historical assembly.
    site = WebObject(
        clock,
        transport,
        policy=policy,
        pages=pages or {"index.html": "<h1>home</h1>"},
        trace=getattr(backend_obj, "trace", None),
        designated_writer=designated_writer,
        reliable_transport=reliable_transport,
        store_factory=getattr(backend_obj, "store_factory", None),
    )
    server = site.create_server("server")
    mirrors = [
        site.create_mirror(f"mirror-{index}") for index in range(n_mirrors)
    ]
    caches = []
    for index in range(n_caches):
        parent = (
            mirrors[index % len(mirrors)].address if mirrors else "server"
        )
        caches.append(site.create_cache(f"cache-{index}", parent=parent))
    browsers: Dict[str, Browser] = {}
    master_read = caches[0].address if caches else "server"
    browsers["master"] = site.bind_browser(
        "space-master",
        "master",
        read_store=master_read,
        write_store="server",
        guarantees=master_guarantees,
        request_timeout=request_timeout,
        request_retries=request_retries,
    )
    cohorts: Dict[str, int] = {}
    cohort_spec: Dict[str, Dict[str, Any]] = {}
    # A reader is a cohort of weight 1; only real cohorts are recorded,
    # so per-client builds keep their ids and an empty ``cohorts``.
    prefix = "reader" if cohort_size == 1 else "cohort"
    groups = cohort_sizes(n_readers_per_cache, cohort_size)
    for index, cache in enumerate(caches):
        for group, weight in enumerate(groups):
            client_id = f"{prefix}-{index}-{group}"
            browsers[client_id] = site.bind_browser(
                f"space-{client_id}",
                client_id,
                read_store=cache.address,
                request_timeout=request_timeout,
                request_retries=request_retries,
            )
            if cohort_size == 1:
                continue
            cohorts[client_id] = weight
            cohort_spec[client_id] = {
                "read_store": cache.address,
                "request_timeout": request_timeout,
                "request_retries": request_retries,
            }
    # Start executing protocol events only once the whole tree is wired,
    # so live deployments assemble without racing their own traffic.
    if start_backend:
        backend_obj.start()
    return Deployment(
        sim=clock,
        network=transport,
        site=site,
        server=server,
        mirrors=mirrors,
        caches=caches,
        browsers=browsers,
        backend=backend_obj,
        cohorts=cohorts,
        cohort_spec=cohort_spec,
    )


def conference_deployment(
    seed: int = 0,
    lazy_interval: float = 5.0,
    backend: Union[str, Backend] = "sim",
) -> Deployment:
    """The paper's Section 4 system, exactly (Fig. 3).

    One Web server (permanent store), the master's cache and the user's
    cache (client-initiated stores), client M writing directly to the
    server with RYW, client U reading from its cache with no client-based
    model, Table 2 policy values.  Runs on either backend.
    """
    policy = ReplicationPolicy.conference_example(lazy_interval=lazy_interval)
    pages = {
        "index.html": "<h1>ICDCS'98</h1>",
        "program.html": "<h2>Technical Program</h2>",
        "registration.html": "<h2>Registration</h2>",
        "authors.html": "<h2>Author Guidelines</h2>",
        "hotel.html": "<h2>Accommodations</h2>",
    }
    deployment = build_tree(
        policy=policy,
        n_mirrors=0,
        n_caches=2,
        n_readers_per_cache=0,
        pages=pages,
        seed=seed,
        designated_writer="master",
        backend=backend,
        start_backend=False,
    )
    site = deployment.site
    deployment.browsers["user"] = site.bind_browser(
        "space-user",
        "user",
        read_store="cache-1",
        guarantees=(),
    )
    # All address spaces are wired; only now may protocol events execute.
    deployment.backend.start()
    return deployment
