"""Experiment X3: per-object strategies vs one global caching strategy.

The paper's central claim (Section 1): "it would be better to use
different caching and replication strategies for different Web pages,
depending on their characteristics".  This experiment runs three documents
with deliberately different characteristics

- a **personal home page**: one writer, a handful of readers, updated
  occasionally (best served by invalidation + fetch-on-demand);
- a **popular event page**: one master updating incrementally, many
  readers (best served by pushed partial updates -- the conference
  policy);
- a **shared bibliography**: several writers appending records, moderate
  readership (needs PRAM ordering, pushed updates);

under (a) the framework with a per-object policy each, and (b) the
classical single global strategies: validation caching, TTL caching, and
no caching.  Metrics: origin load, staleness, read latency.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional, Tuple

from repro.baselines.browser import HttpBrowser
from repro.baselines.origin import HttpOrigin
from repro.baselines.proxy import CacheMode, HttpProxy
from repro.coherence.models import CoherenceModel, SessionGuarantee
from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, mean
from repro.metrics.staleness import staleness_summary
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    Propagation,
    ReplicationPolicy,
    TransferInstant,
    WriteSet,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Delay, Process, WaitFor
from repro.web.webobject import WebObject


@dataclasses.dataclass(frozen=True)
class DocumentSpec:
    """Characteristics of one document in the mixed workload."""

    name: str
    pages: Dict[str, str]
    n_readers: int
    reads_per_reader: int
    read_think: float
    n_writers: int
    writes_per_writer: int
    write_interval: float
    incremental: bool


SPECS: List[DocumentSpec] = [
    DocumentSpec(
        name="home",
        pages={"me.html": "<h1>about me</h1>" + "h" * 512},
        n_readers=2, reads_per_reader=4, read_think=4.0,
        n_writers=1, writes_per_writer=2, write_interval=10.0,
        incremental=False,
    ),
    DocumentSpec(
        name="event",
        pages={"news.html": "<h1>event</h1>" + "e" * 512},
        n_readers=8, reads_per_reader=8, read_think=1.0,
        n_writers=1, writes_per_writer=8, write_interval=2.0,
        incremental=True,
    ),
    DocumentSpec(
        name="biblio",
        pages={"refs.html": "<h1>bibliography</h1>" + "b" * 512},
        n_readers=3, reads_per_reader=6, read_think=2.0,
        n_writers=2, writes_per_writer=5, write_interval=3.0,
        incremental=True,
    ),
]


def per_object_policy(spec: DocumentSpec) -> ReplicationPolicy:
    """The per-object strategy the framework assigns each document."""
    if spec.name == "home":
        # Rarely read: invalidate and refetch on demand; no pushes of
        # content nobody is reading.
        return ReplicationPolicy(
            model=CoherenceModel.FIFO,
            propagation=Propagation.INVALIDATE,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            access_transfer=AccessTransfer.PARTIAL,
            object_outdate_reaction=OutdateReaction.WAIT,
        )
    if spec.name == "event":
        # Hot and incrementally updated: the conference policy -- pushed,
        # aggregated partial updates.
        return ReplicationPolicy.conference_example(lazy_interval=2.0)
    # biblio: multi-writer incremental updates need PRAM ordering with
    # immediate pushes.
    return ReplicationPolicy(
        model=CoherenceModel.PRAM,
        write_set=WriteSet.MULTIPLE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        transfer_instant=TransferInstant.IMMEDIATE,
    )


# --------------------------------------------------------------------------
# framework side
# --------------------------------------------------------------------------


def _framework_run(seed: int) -> Tuple[float, float, float]:
    """Run the mixed workload on per-object policies.

    Returns (origin messages, stale read fraction, mean read latency).
    """
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(0.05))
    sites: Dict[str, WebObject] = {}
    total_reads = 0
    for spec in SPECS:
        site = WebObject(
            sim, network,
            policy=per_object_policy(spec),
            pages=dict(spec.pages),
            object_id=f"obj-{spec.name}",
            designated_writer=None,
        )
        site.create_server(f"server-{spec.name}")
        site.create_cache(f"cache-{spec.name}", parent=f"server-{spec.name}")
        sites[spec.name] = site

    def reader_script(site: WebObject, spec: DocumentSpec, index: int) -> Generator:
        browser = site.bind_browser(
            f"space-{spec.name}-r{index}", f"{spec.name}-reader-{index}",
            read_store=f"cache-{spec.name}",
        )
        rng = sim.rng.fork(f"{spec.name}-r{index}")
        page = next(iter(spec.pages))
        for _ in range(spec.reads_per_reader):
            yield Delay(rng.exponential(spec.read_think))
            yield WaitFor(browser.read_page(page))

    def writer_script(site: WebObject, spec: DocumentSpec, index: int) -> Generator:
        browser = site.bind_browser(
            f"space-{spec.name}-w{index}", f"{spec.name}-writer-{index}",
            read_store=f"cache-{spec.name}",
            write_store=f"server-{spec.name}",
            guarantees=(SessionGuarantee.READ_YOUR_WRITES,),
        )
        rng = sim.rng.fork(f"{spec.name}-w{index}")
        page = next(iter(spec.pages))
        for op in range(spec.writes_per_writer):
            yield Delay(rng.exponential(spec.write_interval))
            if spec.incremental:
                yield WaitFor(browser.append_to_page(page, f"<li>{index}/{op}</li>"))
            else:
                yield WaitFor(browser.write_page(page, f"<h1>rev {op}</h1>" + "h" * 512))

    for spec in SPECS:
        site = sites[spec.name]
        for index in range(spec.n_readers):
            Process(sim, reader_script(site, spec, index),
                    f"{spec.name}-reader-{index}")
            total_reads += spec.reads_per_reader
        for index in range(spec.n_writers):
            Process(sim, writer_script(site, spec, index),
                    f"{spec.name}-writer-{index}")
    sim.run_until_idle()
    sim.run(until=sim.now + 10.0)

    origin_messages = sum(
        sum(count for kind, count in
            sites[spec.name].dso.stores[f"server-{spec.name}"].engine.counters.items()
            if kind.startswith("rx:"))
        for spec in SPECS
    )
    stale_fractions = []
    latencies: List[float] = []
    for spec in SPECS:
        site = sites[spec.name]
        summary = staleness_summary(site.trace)
        if summary.reads:
            stale_fractions.append(summary.stale_fraction)
        for client in site.dso.clients:
            latencies += client.replication.read_latencies
    return float(origin_messages), mean(stale_fractions), mean(latencies)


# --------------------------------------------------------------------------
# baseline side
# --------------------------------------------------------------------------


def _baseline_run(seed: int, mode: CacheMode, ttl: float = 8.0
                  ) -> Tuple[float, float, float]:
    """Run the same logical workload on a single global caching strategy."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(0.05))
    all_pages: Dict[str, str] = {}
    for spec in SPECS:
        all_pages.update(spec.pages)
    origin = HttpOrigin(sim, network, "origin", pages=all_pages)
    proxy = HttpProxy(sim, network, "proxy", upstream="origin",
                      mode=mode, ttl=ttl)
    stale_reads = 0
    total_reads = 0
    latencies: List[float] = []

    def reader_script(spec: DocumentSpec, index: int) -> Generator:
        nonlocal stale_reads, total_reads
        browser = HttpBrowser(sim, network, f"b-{spec.name}-r{index}", "proxy")
        rng = sim.rng.fork(f"{spec.name}-r{index}")
        page = next(iter(spec.pages))
        for _ in range(spec.reads_per_reader):
            yield Delay(rng.exponential(spec.read_think))
            fetched = yield WaitFor(browser.get(page))
            total_reads += 1
            latencies.append(fetched.latency)
            if fetched.version < origin.current_version(page):
                stale_reads += 1

    def writer_script(spec: DocumentSpec, index: int) -> Generator:
        browser = HttpBrowser(sim, network, f"b-{spec.name}-w{index}", "origin")
        rng = sim.rng.fork(f"{spec.name}-w{index}")
        page = next(iter(spec.pages))
        for op in range(spec.writes_per_writer):
            yield Delay(rng.exponential(spec.write_interval))
            if spec.incremental:
                yield WaitFor(browser.put(page, f"<li>{index}/{op}</li>",
                                          append=True))
            else:
                yield WaitFor(browser.put(page, f"<h1>rev {op}</h1>" + "h" * 512))

    for spec in SPECS:
        for index in range(spec.n_readers):
            Process(sim, reader_script(spec, index), f"r-{spec.name}-{index}")
        for index in range(spec.n_writers):
            Process(sim, writer_script(spec, index), f"w-{spec.name}-{index}")
    sim.run_until_idle()

    origin_messages = float(
        origin.counters["get"] + origin.counters["put"]
    )
    stale_fraction = stale_reads / total_reads if total_reads else 0.0
    return origin_messages, stale_fraction, mean(latencies)


def run_x3_point(config: Dict[str, object], seed: int
                 ) -> Tuple[float, float, float]:
    """One X3 point: the framework or one global caching baseline."""
    if config["strategy"] == "framework":
        return _framework_run(seed)
    return _baseline_run(seed, CacheMode(config["mode"]),
                         ttl=config["ttl"])


def run_per_object(seed: int = 0, parallel: int = 1,
                   cache_dir: Optional[str] = None) -> ExperimentResult:
    """X3: compare per-object policies against each global strategy."""
    result = ExperimentResult(
        name="X3: Per-object strategies vs a single global strategy",
        headers=[
            "strategy", "origin messages", "stale read fraction",
            "mean read latency (s)",
        ],
    )
    spec = SweepSpec(name="x3-per-object", run_point=run_x3_point,
                     base_seed=seed, paired=True)
    spec.add("per-object (framework)", strategy="framework")
    for label, mode in (
        ("global validation", CacheMode.VALIDATE),
        ("global TTL (8s)", CacheMode.TTL),
        ("no caching", CacheMode.NONE),
    ):
        spec.add(label, strategy="baseline", mode=mode, ttl=8.0)
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, run in measured.items():
        result.add_row(label, int(run[0]), f"{run[1]:.3f}", f"{run[2]:.4f}")
    result.data["measured"] = measured
    fw_origin, fw_stale, fw_latency = measured["per-object (framework)"]
    va_origin, _, va_latency = measured["global validation"]
    _, ttl_stale, _ = measured["global TTL (8s)"]
    nc_origin, _, _ = measured["no caching"]
    result.claim("per-object policies load the origin less than validation "
                 "and than no caching", fw_origin < min(va_origin, nc_origin))
    result.claim("per-object policies read faster than validation",
                 fw_latency < va_latency)
    result.claim("per-object policies serve fewer stale reads than TTL",
                 fw_stale < ttl_stale)
    return result
