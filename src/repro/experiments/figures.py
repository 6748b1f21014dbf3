"""Experiments F1 and F2: the paper's architecture figures, executable.

- **F1** (Fig. 1): one distributed shared object spanning four address
  spaces, each hosting a local object composed of the four sub-objects;
  verified structurally and by exercising an invocation through each
  composition.
- **F2** (Fig. 2): the layered store system model -- permanent,
  object-initiated and client-initiated stores -- with the object model
  enforced down to the store-scope layer and eventual coherence below it,
  measured as per-layer staleness.
"""

from __future__ import annotations

from typing import Generator

from repro.coherence.models import CoherenceModel
from repro.core.interfaces import Role
from repro.experiments.harness import ExperimentResult
from repro.metrics.staleness import staleness_summary
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
    StoreScope,
    TransferInstant,
)
from repro.sim.process import Delay, Process, WaitFor
from repro.stores.hierarchy import describe_hierarchy
from repro.workload.scenarios import build_tree


def run_fig1(seed: int = 0) -> ExperimentResult:
    """F1: one Web object distributed across four address spaces."""
    deployment = build_tree(
        policy=ReplicationPolicy(),
        n_mirrors=1,
        n_caches=1,
        n_readers_per_cache=1,
        seed=seed,
    )
    sim = deployment.sim
    site = deployment.site

    def script() -> Generator:
        master = deployment.browsers["master"]
        reader = deployment.browsers["reader-0-0"]
        yield WaitFor(master.write_page("index.html", "<h1>fig1</h1>"))
        yield Delay(1.0)
        page = yield WaitFor(reader.read_page("index.html"))
        assert page["content"] == "<h1>fig1</h1>"

    Process(sim, script(), "fig1")
    sim.run_until_idle()

    result = ExperimentResult(
        name="F1: One object distributed across four address spaces",
        headers=["address space", "role", "semantics", "replication",
                 "communication", "control"],
    )
    spaces = list(site.dso.stores.values()) + [
        c.local for c in site.dso.clients
    ]
    for entry in spaces:
        local = entry.local if hasattr(entry, "local") else entry
        result.add_row(
            local.address,
            local.role.value,
            type(local.semantics).__name__ if local.semantics else "-",
            type(local.replication).__name__,
            type(local.comm).__name__,
            type(local.control).__name__,
        )
    result.note(
        "Store address spaces hold the full four-component composition; "
        "pure clients hold no semantics object and translate method calls "
        "to messages, exactly as in Fig. 1."
    )
    roles = {store.role.value for store in site.dso.stores.values()}
    result.claim(f"the object spans at least 4 address spaces ({len(spaces)})",
                 len(spaces) >= 4)
    result.claim("it has permanent, object-initiated and client-initiated "
                 "stores",
                 {"permanent", "object-initiated", "client-initiated"} <= roles)
    return result


def run_fig2(
    seed: int = 0,
    scope: StoreScope = StoreScope.PERMANENT_AND_OBJECT_INITIATED,
    writes: int = 12,
) -> ExperimentResult:
    """F2: layered stores; guarantee weakening below the scope layer."""
    policy = ReplicationPolicy(
        model=CoherenceModel.PRAM,
        store_scope=scope,
        transfer_instant=TransferInstant.LAZY,
        lazy_interval=3.0,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
    )
    deployment = build_tree(
        policy=policy,
        n_mirrors=2,
        n_caches=4,
        n_readers_per_cache=1,
        seed=seed,
    )
    sim = deployment.sim
    # Readers at the upper layers too, so per-layer staleness is populated.
    for store_address in ("server", "mirror-0", "mirror-1"):
        client_id = f"reader-at-{store_address}"
        deployment.browsers[client_id] = deployment.site.bind_browser(
            f"space-{client_id}", client_id, read_store=store_address,
        )

    def master_script() -> Generator:
        master = deployment.browsers["master"]
        for index in range(writes):
            yield Delay(0.8)
            yield WaitFor(
                master.append_to_page("index.html", f"<li>{index}</li>")
            )

    def reader_script(name: str) -> Generator:
        browser = deployment.browsers[name]
        for _ in range(10):
            yield Delay(1.1)
            try:
                yield WaitFor(browser.read_page("index.html"))
            except Exception:
                pass

    Process(sim, master_script(), "master")
    for name in list(deployment.browsers):
        if name.startswith("reader"):
            Process(sim, reader_script(name), name)
    sim.run_until_idle()
    sim.run(until=sim.now + 2 * policy.lazy_interval)

    view = describe_hierarchy(deployment.site.dso)
    trace = deployment.site.trace
    result = ExperimentResult(
        name="F2: Layered store system model",
        headers=["layer", "stores", "model enforced", "stale read fraction",
                 "mean time lag (s)"],
    )
    layers = (Role.PERMANENT, Role.OBJECT_INITIATED, Role.CLIENT_INITIATED)
    enforced, time_lag = {}, {}
    for role in layers:
        infos = view.layer(role)
        if not infos:
            continue
        addresses = [info.address for info in infos]
        stale = staleness_summary(trace, stores=addresses)
        enforced[role] = all(info.enforced for info in infos)
        time_lag[role] = stale.time_lag.mean
        result.add_row(
            role.value,
            ", ".join(addresses),
            policy.model.value if enforced[role] else "eventual (weakened)",
            f"{stale.stale_fraction:.3f}" if stale.reads else "n/a",
            f"{stale.time_lag.mean:.3f}" if stale.reads else "n/a",
        )
    result.claim(
        f"a layer enforces {policy.model.value} exactly when it lies within "
        f"the store scope ({scope.value}); the layers below run eventual",
        enforced == {role: role in scope.enforced_roles() for role in layers},
    )
    result.claim(
        "the permanent layer's time lag is at most the client-initiated "
        "layer's",
        time_lag[Role.PERMANENT] <= time_lag[Role.CLIENT_INITIATED],
    )
    return result
