"""The four benchmark workloads: inputs, one measured repetition, checks.

Every workload is a frozen parameter set plus a ``rep`` function that
builds a *fresh* deployment from the run seed, drives a fixed number of
client operations through it and returns a :class:`Rep`: set-up and
drive host seconds, op accounting, the counters the per-layer ratios are
built from and the violations its correctness checks found.  ``run.py``
repeats ``rep`` until its time budget is spent and reports medians.

Op counts are fixed per repetition, never time-boxed, so every simulated
count is exact per seed and the ``sim_*`` repetitions of one run must
produce one identical :func:`sim_digest`.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import os
import random
import shutil
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coherence import checkers
from repro.coherence.trace import coherence_signature
from repro.faults import (
    CrashNode,
    FaultInjector,
    FaultPlan,
    RestartNode,
    periodic_flap,
)
from repro.metrics.faults import unavailable_read_fraction
from repro.metrics.traffic import TrafficSummary, collect_traffic
from repro.obs import tracer as obs_tracer
from repro.report.grid import STRATEGIES
from repro.sim.process import Process
from repro.transport.backend import SocketBackend
from repro.workload.generator import ReaderWorkload, WriterWorkload
from repro.workload.profiles import default_pages
from repro.workload.scenarios import Deployment, build_tree

from benchmarks.perf.results import OUT_DIR, percentile
from benchmarks.perf.trace import Tracer

#: Seconds one client operation may take on ``socket_mixed`` before it
#: is counted as failed (instead of hanging the run).
OP_TIMEOUT_S = 10.0

#: Longest ``AF_UNIX`` path the hub socket may have (``sun_path`` is 108
#: bytes on Linux); beyond it the hub falls back to the system temp dir.
_MAX_SOCKET_PATH = 100


@dataclasses.dataclass(frozen=True)
class SimParams:
    """One ``sim`` workload: the Fig. 2 tree, a traffic mix, maybe faults."""

    strategy: str
    mirrors: int
    caches: int
    readers_per_cache: int
    writes: int
    write_interval: float
    reads_per_client: int
    read_think: float
    request_timeout: Optional[float] = None
    request_retries: int = 0
    #: Run the fault plan of :func:`fault_plan` over warmed caches.  Such
    #: a run does not assert replica convergence: a cache that missed a
    #: push while crashed only catches up on its next read or push, and
    #: the run ends first.
    faults: bool = False

    @property
    def ops(self) -> int:
        """Client operations one repetition attempts."""
        return (self.writes
                + self.caches * self.readers_per_cache * self.reads_per_client)


@dataclasses.dataclass(frozen=True)
class SocketParams:
    """The ``live-socket`` closed loop: two client threads, three nodes."""

    strategy: str
    caches: int
    ops_per_thread: int
    warmup_ops: int
    write_every: int

    @property
    def ops(self) -> int:
        """Timed client operations one repetition attempts."""
        return 2 * self.ops_per_thread


#: Full-size parameters, frozen here (``BENCHMARK.json`` admits no such
#: key); ``QUICK`` scales every count down for the smoke test.
FULL: Dict[str, Any] = {
    "sim_read_heavy": SimParams(
        strategy="push-invalidate", mirrors=0, caches=20,
        readers_per_cache=50, writes=10, write_interval=1.0,
        reads_per_client=30, read_think=0.2,
    ),
    "sim_write_fanout": SimParams(
        strategy="push-update", mirrors=0, caches=200,
        readers_per_cache=1, writes=150, write_interval=0.05,
        reads_per_client=5, read_think=0.2,
    ),
    "sim_faults": SimParams(
        strategy="push-update", mirrors=2, caches=20,
        readers_per_cache=50, writes=40, write_interval=0.25,
        reads_per_client=30, read_think=0.2,
        request_timeout=0.5, request_retries=4,
        faults=True,
    ),
    "socket_mixed": SocketParams(
        strategy="push-update", caches=2, ops_per_thread=1000,
        warmup_ops=100, write_every=5,
    ),
}

QUICK: Dict[str, Any] = {
    "sim_read_heavy": dataclasses.replace(
        FULL["sim_read_heavy"], caches=4, readers_per_cache=10),
    "sim_write_fanout": dataclasses.replace(
        FULL["sim_write_fanout"], caches=30, writes=30),
    "sim_faults": dataclasses.replace(
        FULL["sim_faults"], caches=4, readers_per_cache=10),
    "socket_mixed": dataclasses.replace(
        FULL["socket_mixed"], ops_per_thread=120, warmup_ops=20),
}


@dataclasses.dataclass
class Rep:
    """What one repetition measured and observed."""

    setup_s: float
    drive_s: float
    attempted: int
    failed: int
    #: Exact simulated counters / outside observations, by name.
    counters: Dict[str, float]
    #: Violated correctness checks (empty = all passed).
    violations: List[str]
    digest: Optional[str] = None
    #: ``socket_mixed`` only: per-op latencies in ms.
    read_ms: List[float] = dataclasses.field(default_factory=list)
    write_ms: List[float] = dataclasses.field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Operations that completed without error per drive second."""
        return (self.attempted - self.failed) / self.drive_s


def policy_for(strategy: str):
    """The validated replication policy of one named Table-1 strategy."""
    return STRATEGIES[strategy].build_policy()


def page_body(index: int) -> str:
    """A 1 KiB page body that names the write it came from."""
    head = f"<!--{index}-->"
    return head + "x" * (1024 - len(head))


# -- sim workloads ----------------------------------------------------------------


def fault_plan(deployment: Deployment) -> FaultPlan:
    """The ``sim_faults`` plan: a flapping mirror plus rotating cache crashes.

    ``mirror-0`` is cut from every other store for 0.75 s of every 1.5 s
    (reliable traffic queues and flushes on heal); every 0.5 s the next
    cache -- in an order shuffled by the run seed -- is down for 1 s.
    From 0.5 s to 12.5 s some fault is always active, so practically
    every datagram takes ``Network``'s reference lane and the fault gate.

    The rotation (rather than ``random_churn``) is what makes *no client
    operation fail* a property of the plan, not of the seed: a cache is
    down for 1 s at most once in 10 s, so a request retried every 0.5 s
    up to 4 times always finds it up again.  Random churn at the same
    rate re-crashes fresh caches and wedges catch-up demands for tens of
    seconds on some seeds.
    """
    stores = [store.address for store in deployment.site.stores()]
    rest = [address for address in stores if address != "mirror-0"]
    flap = periodic_flap(["mirror-0"], rest, period=1.5, down_for=0.75,
                         until=12.0, start=0.5)
    order = [cache.address for cache in deployment.caches]
    deployment.sim.rng.fork("faults").shuffle(order)
    crashes: List[Any] = []
    at, turn = 0.5, 0
    while at < 12.0:
        node = order[turn % len(order)]
        crashes += [CrashNode(at=at, node=node),
                    RestartNode(at=at + 1.0, node=node)]
        at += 0.5
        turn += 1
    return FaultPlan(events=flap.events + tuple(crashes))


def _warm_caches(deployment: Deployment, pages: List[str]) -> None:
    """Fetch every page into every cache, one page per cache at a time.

    Untimed.  A cache fetches missing pages one demand after another, so
    the cold start of 50 readers on 10 pages takes seconds of virtual
    time; under faults those stalls outlast any sane client timeout.
    The fault workload measures the steady state instead.
    """
    sim = deployment.sim
    for page in pages:
        futures = [
            deployment.browsers[f"reader-{index}-0"].read_page(page)
            for index in range(len(deployment.caches))
        ]
        sim.run_until_idle()
        for future in futures:
            future.result()  # raises if a warm-up read failed


def sim_digest(deployment: Deployment, traffic: TrafficSummary) -> str:
    """SHA-256 over everything a seeded ``sim`` run must reproduce.

    Covers the kernel's event count, every ``NetworkStats`` counter, the
    per-kind engine counters and the time-free coherence signature of the
    shared trace.  A change meant only to make the simulator faster must
    leave it unchanged.
    """
    signature = coherence_signature(deployment.site.trace)
    parts = (
        deployment.sim.events_fired,
        sorted(deployment.network.stats.as_dict().items()),
        sorted(traffic.by_kind.items()),
        hashlib.sha256(
            repr(sorted(signature.items())).encode("utf-8")
        ).hexdigest(),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _content_convergence(deployment: Deployment) -> List[str]:
    """Every valid page copy carries the primary's content.

    ``check_convergence`` compares whole snapshots, which never match
    here by design: a cache holds only the pages it fetched, and
    ``last_modified`` is stamped with each store's own apply time.  So it
    is applied page by page to the ``content`` of every copy the holding
    store has not marked invalid.
    """
    states = deployment.site.store_states()
    invalid = {
        address: set(getattr(store.engine, "invalid_keys", ()))
        for address, store in deployment.site.dso.stores.items()
    }
    violations: List[str] = []
    for page in states[deployment.server.address]:
        copies = {
            address: state[page]["content"]
            for address, state in states.items()
            if page in state and page not in invalid[address]
        }
        violations += [
            f"{page}: {violation}"
            for violation in checkers.check_convergence(copies)
        ]
    return violations


def _trace_violations(deployment: Deployment, eventual: bool) -> List[str]:
    """PRAM / read-your-writes / eventual delivery over the shared trace."""
    trace = deployment.site.trace
    violations = list(checkers.check_pram(trace))
    violations += checkers.check_read_your_writes(trace, "master")
    if eventual:
        violations += checkers.check_eventual_delivery(trace)
    return violations


def sim_rep(params: SimParams, seed: int, full_checks: bool,
            tracer: Optional[Tracer] = None) -> Rep:
    """Build, drive and check one ``sim`` deployment.

    ``full_checks`` adds the trace checkers, which scan the whole trace
    once per store; ``run.py`` asks for them on the warm-up repetition
    only, because every later repetition must reproduce its digest and
    the checkers are functions of exactly what the digest covers.
    """
    if obs_tracer.ACTIVE is not None:
        raise RuntimeError("a repro.obs tracer is installed; the benchmark "
                           "would measure the reference lane")
    pages = default_pages()
    names = list(pages)
    started = time.perf_counter()
    deployment = build_tree(
        policy=policy_for(params.strategy),
        n_mirrors=params.mirrors,
        n_caches=params.caches,
        n_readers_per_cache=params.readers_per_cache,
        pages=dict(pages),
        seed=seed,
        request_timeout=params.request_timeout,
        request_retries=params.request_retries,
        scheduler="heap",
        cohort_size=1,
    )
    sim = deployment.sim
    rng = sim.rng.fork("workload")
    workloads: List[Any] = [WriterWorkload(
        deployment.browsers["master"], pages=names, rng=rng.fork("writer"),
        interval=params.write_interval, operations=params.writes,
        incremental=False, payload_bytes=1024,
    )]
    for name, browser in deployment.browsers.items():
        if name != "master":
            workloads.append(ReaderWorkload(
                browser, pages=names, rng=rng.fork(name),
                mean_think=params.read_think,
                operations=params.reads_per_client,
            ))
    injector = None
    if params.faults:
        injector = FaultInjector(sim, deployment.network,
                                 fault_plan(deployment))
        deployment.faults = injector
    setup_s = time.perf_counter() - started

    if params.faults:
        _warm_caches(deployment, names)
    stats = deployment.network.stats
    before = dict(stats.as_dict(), events=sim.events_fired)
    processes: List[Process] = []

    def drive() -> None:
        if injector is not None:
            injector.start()
        for index, workload in enumerate(workloads):
            processes.append(
                Process(sim, workload.run(), name=f"wl-{index}"))
        sim.run(max_events=50_000_000)
        sim.run_until_idle()
        # Drain the final lazy window, if the policy has one.
        sim.run(until=sim.now + 2 * deployment.site.policy.lazy_interval)

    if tracer is not None:
        tracer.mark()
        drive = functools.partial(
            tracer.fire, tracer.key("workload", "drive"), drive)
    started = time.perf_counter()
    drive()
    drive_s = time.perf_counter() - started

    attempted = sum(w.stats.operations for w in workloads)
    failed = sum(w.stats.errors + w.stats.not_found for w in workloads)
    violations: List[str] = []
    if attempted != params.ops:
        violations.append(f"attempted {attempted} ops, expected {params.ops}")
    unresolved = sum(1 for process in processes if not process.done.done)
    if unresolved:
        violations.append(f"{unresolved} workload processes never finished")
    if not params.faults:
        violations += _content_convergence(deployment)
    if full_checks:
        eventual = params.strategy == "push-update" and not params.faults
        violations += _trace_violations(deployment, eventual)

    traffic = collect_traffic(deployment.network, deployment.engines)
    after = stats.as_dict()
    counters: Dict[str, float] = {
        "events": sim.events_fired - before["events"],
        "datagrams": after["datagrams_sent"] - before["datagrams_sent"],
        "bytes": after["bytes_sent"] - before["bytes_sent"],
        "dropped": sum(
            after[name] - before[name] for name in after
            if name.startswith("datagrams_dropped_")
        ),
        "dropped_crashed": (after["datagrams_dropped_crashed"]
                            - before["datagrams_dropped_crashed"]),
        "dropped_partition": (after["datagrams_dropped_partition"]
                              - before["datagrams_dropped_partition"]),
        "coherence_msgs": traffic.coherence_messages,
        "tx_demand": traffic.kind("tx:demand"),
        "rx_read": traffic.kind("rx:read"),
        "writes": params.writes,
        "fault_events": len(injector.applied) if injector else 0,
        "unavailable_read_share": unavailable_read_fraction(
            browser.bound.replication
            for browser in deployment.browsers.values()
        ),
    }
    return Rep(setup_s=setup_s, drive_s=drive_s, attempted=attempted,
               failed=failed, counters=counters, violations=violations,
               digest=sim_digest(deployment, traffic))


# -- socket workload ------------------------------------------------------------------


def make_run_dir() -> Optional[str]:
    """A fresh hub run directory inside the checkout, if its path fits."""
    path = OUT_DIR / f"hub-{os.getpid()}-{time.monotonic_ns() % 10**9}"
    if len(str(path / "hub.sock")) > _MAX_SOCKET_PATH:
        return None  # SocketHub then uses (and removes) a temp dir
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def _proc_stat(pid: int) -> Tuple[float, float]:
    """(CPU seconds, RSS MiB) of a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = (int(fields[11]) + int(fields[12])) / ticks
    rss_mb = int(fields[21]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    return cpu_s, rss_mb


def _engine_counters(deployment: Deployment) -> collections.Counter:
    """Per-kind message counters summed over the node processes' engines.

    ``collect_traffic`` wants in-process engines (a ``counters``
    attribute); the remote proxies answer ``counters()`` over RPC.
    """
    total: collections.Counter = collections.Counter()
    for store in deployment.site.stores():
        total.update(store.engine.counters())
    return total


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _ClosedLoopClient:
    """One client thread: issue an op, wait for its completion, repeat.

    Each op is issued on the dispatcher with ``deployment.call`` and
    timed to a ``Future.add_callback`` stamp taken on the dispatcher --
    not through ``Backend.wait``, whose 2 ms poll would quantise the
    latency.  The callback is attached inside the same dispatcher call
    that issues the op, so it cannot race the reply.
    """

    def __init__(self, deployment: Deployment, browser: Any,
                 plan: List[Tuple[str, str, Optional[str]]]) -> None:
        self.deployment = deployment
        self.browser = browser
        self.plan = plan
        #: (kind, page, issue time, completion time, result or None).
        self.done: List[Tuple[str, str, float, float, Any]] = []
        self.failed = 0

    def _issue(self, kind: str, page: str, payload: Optional[str],
               stamp: Callable) -> Any:
        if kind == "r":
            future = self.browser.read_page(page)
        else:
            future = self.browser.write_page(page, payload)
        future.add_callback(stamp)
        return future

    def run(self) -> None:
        """Drive the whole plan (thread body)."""
        finished = threading.Event()
        box: Dict[str, float] = {}

        def stamp(_future: Any) -> None:
            box["at"] = time.perf_counter()
            finished.set()

        for kind, page, payload in self.plan:
            finished.clear()
            issued = time.perf_counter()
            try:
                future = self.deployment.call(
                    self._issue, kind, page, payload, stamp)
                if not finished.wait(OP_TIMEOUT_S):
                    raise TimeoutError(f"{kind} {page} unresolved")
                result = future.result()
            except Exception:  # any failed op is counted, never fatal
                self.failed += 1
                self.done.append(
                    (kind, page, issued, time.perf_counter(), None))
                continue
            self.done.append((kind, page, issued, box["at"], result))


def _socket_plans(params: SocketParams, seed: int, phase: str,
                  count: int) -> Tuple[List, List]:
    """The reader's and the master's op lists for one phase."""
    rng = random.Random(f"{seed}:{phase}")
    names = list(default_pages())
    reader = [("r", rng.choice(names), None) for _ in range(count)]
    master: List[Tuple[str, str, Optional[str]]] = []
    for index in range(count):
        page = rng.choice(names)
        if index % params.write_every == params.write_every - 1:
            master.append(("w", page, page_body(index)))
        else:
            master.append(("r", page, None))
    return reader, master


def _closed_loop(deployment: Deployment, params: SocketParams, seed: int,
                 phase: str, count: int) -> List[_ClosedLoopClient]:
    """Run ``count`` ops per client thread; (reader, master) when done.

    The reader reads at the last cache; the master writes to the server
    and reads at ``cache-0`` under read-your-writes.
    """
    reader_plan, master_plan = _socket_plans(params, seed, phase, count)
    browsers = deployment.browsers
    clients = [
        _ClosedLoopClient(deployment,
                          browsers[f"reader-{params.caches - 1}-0"],
                          reader_plan),
        _ClosedLoopClient(deployment, browsers["master"], master_plan),
    ]
    threads = [
        threading.Thread(target=client.run, name=f"client-{index}")
        for index, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clients


def _read_violations(reader: _ClosedLoopClient,
                     master: _ClosedLoopClient,
                     initial: Dict[str, str],
                     warm_plan: List[Tuple[str, str, Optional[str]]],
                     ) -> List[str]:
    """Check every read's content against what was ever written.

    A read must return the page's initial content or a body the master
    wrote to it (the reader runs beside the master, so any body of the
    master's plan is acceptable); the master is the only writer and waits
    for each ack, so its own read of a page it has written in the timed
    phase must return exactly its latest write (read-your-writes).
    """
    known = {page: {content} for page, content in initial.items()}
    for kind, page, payload in warm_plan + master.plan:
        if kind == "w":
            known[page].add(payload)
    violations: List[str] = []
    latest: Dict[str, str] = {}
    for (kind, page, payload), op in zip(master.plan, master.done):
        result = op[4]
        if result is None:
            continue  # a failed op: counted, nothing to check
        if kind == "w":
            latest[page] = payload
        elif page in latest and result["content"] != latest[page]:
            violations.append(
                f"master read of {page} missed its own latest write")
        elif result["content"] not in known[page]:
            violations.append(f"master read of {page}: unknown content")
    for _, page, _, _, result in reader.done:
        if result is not None and result["content"] not in known[page]:
            violations.append(f"reader read of {page}: unknown content")
    return violations


def socket_rep(params: SocketParams, seed: int, full_checks: bool = True,
               tracer: Optional[Tracer] = None) -> Rep:
    """Spawn hub + node processes, run the closed loop, check, reap."""
    del full_checks  # the trace is small: every repetition runs every check
    pages = default_pages()
    run_dir = make_run_dir()
    violations: List[str] = []
    started = time.perf_counter()
    backend = SocketBackend(seed=seed, latency=0.0, run_dir=run_dir)
    deployment = None
    pids: Dict[str, int] = {}
    try:
        deployment = build_tree(
            policy=policy_for(params.strategy),
            n_caches=params.caches,
            n_readers_per_cache=1,
            pages=dict(pages),
            seed=seed,
            backend=backend,
        )
        setup_s = time.perf_counter() - started
        hub = backend.hub
        nodes = [store.address for store in deployment.site.stores()]
        pids = {name: hub.node_pid(name) for name in nodes}
        _, warm_master = _closed_loop(deployment, params, seed, "warm",
                                      params.warmup_ops)
        stats = deployment.network.stats
        frames_before = stats.frames_sent + stats.frames_received
        sent_before = (stats.datagrams_sent, stats.bytes_sent)
        kinds_before = _engine_counters(deployment)
        if tracer is not None:
            tracer.mark()
        hub_cpu_before = time.process_time()
        node_cpu_before = {n: _proc_stat(p)[0] for n, p in pids.items()}

        reader, master = _closed_loop(deployment, params, seed, "timed",
                                      params.ops_per_thread)

        ops = reader.done + master.done
        drive_s = max(op[3] for op in ops) - min(op[2] for op in ops)
        hub_cpu_s = time.process_time() - hub_cpu_before
        node_stat = {name: _proc_stat(pid) for name, pid in pids.items()}
        frames = stats.frames_sent + stats.frames_received - frames_before
        failed = reader.failed + master.failed
        attempted = len(ops)
        if attempted != params.ops:
            violations.append(
                f"attempted {attempted} ops, expected {params.ops}")
        violations += _read_violations(reader, master, pages,
                                       warm_master.plan)

        def one_version() -> bool:
            versions = {
                tuple(sorted(store.engine.version().items()))
                for store in deployment.site.stores()
            }
            return len(versions) == 1

        if not deployment.wait_until(one_version, timeout=10.0):
            violations.append("engines did not reach one version in 10 s")
        violations += _content_convergence(deployment)
        violations += _trace_violations(deployment, eventual=True)
        checkpoint_bytes = sum(
            os.path.getsize(hub.supervisor.checkpoint_path(name))
            for name in nodes
        )
        kinds = _engine_counters(deployment)
        kinds.subtract(kinds_before)
        counters: Dict[str, float] = {
            "frames": frames,
            "hub_cpu_s": hub_cpu_s,
            "node_cpu_s": sum(node_stat[n][0] - node_cpu_before[n]
                              for n in nodes),
            "node_rss_mb": sum(node_stat[n][1] for n in nodes),
            "checkpoint_bytes": checkpoint_bytes,
            "datagrams": stats.datagrams_sent - sent_before[0],
            "bytes": stats.bytes_sent - sent_before[1],
            "coherence_msgs": TrafficSummary(
                0, 0, 0, 0, 0, by_kind=kinds).coherence_messages,
            "tx_demand": kinds["tx:demand"],
            "rx_read": kinds["rx:read"],
            "writes": sum(1 for op in master.plan if op[0] == "w"),
        }
        read_ms = [(op[3] - op[2]) * 1e3 for op in ops
                   if op[0] == "r" and op[4] is not None]
        write_ms = [(op[3] - op[2]) * 1e3 for op in ops
                    if op[0] == "w" and op[4] is not None]
    finally:
        try:
            if deployment is not None:
                deployment.shutdown()
            else:
                backend.stop()
        finally:
            for name, pid in pids.items():
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:
                        pass  # the supervisor's Popen already reaped it
                    violations.append(f"node {name} (pid {pid}) leaked")
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)
    return Rep(setup_s=setup_s, drive_s=drive_s, attempted=attempted,
               failed=failed, counters=counters, violations=violations,
               read_ms=read_ms, write_ms=write_ms)


def latency_summary(reps: List[Rep]) -> Dict[str, float]:
    """Read p50/p99 and write p50 (ms) pooled over ``reps``' timed ops."""
    reads = sorted(ms for rep in reps for ms in rep.read_ms)
    writes = sorted(ms for rep in reps for ms in rep.write_ms)
    if not reads or not writes:
        return {}
    return {
        "read_p50_ms": percentile(reads, 0.50),
        "read_p99_ms": percentile(reads, 0.99),
        "write_p50_ms": percentile(writes, 0.50),
        "read_samples": len(reads),
        "write_samples": len(writes),
    }


def rep_function(name: str) -> Callable[..., Rep]:
    """The repetition function of workload ``name``."""
    return socket_rep if name == "socket_mixed" else sim_rep
