"""Experiment X7: what enforcing session guarantees costs (and buys).

Design decision D2: unlike Bayou, which only *checks* session guarantees,
our stores *enforce* them.  This experiment runs the lazy-push conference
workload twice per guarantee set -- enforcement ON (the store blocks or
demand-updates) and OFF (requests carry no requirement; the checker then
counts what would have gone wrong) -- and reports violations avoided vs
extra messages and latency paid.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional, Tuple

from repro.coherence import checkers
from repro.coherence.models import SessionGuarantee
from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, mean
from repro.replication.policy import ReplicationPolicy
from repro.sim.process import Delay, Process, WaitFor
from repro.workload.scenarios import Deployment, build_tree

PAGE = "program.html"


def _master(deployment: Deployment, updates: int) -> Generator:
    """Write at the server, immediately read back through the cache."""
    master = deployment.browsers["master"]
    for index in range(updates):
        yield Delay(1.0)
        yield WaitFor(master.append_to_page(PAGE, f"<li>{index}</li>"))
        yield WaitFor(master.read_page(PAGE))


def _roamer(deployment: Deployment, reads: int) -> Generator:
    """Alternate reads between two caches (the monotonic-reads hazard)."""
    roamer_a = deployment.browsers["roamer-a"]
    roamer_b = deployment.browsers["roamer-b"]
    for index in range(reads):
        yield Delay(0.9)
        browser = roamer_a if index % 2 == 0 else roamer_b
        yield WaitFor(browser.read_page(PAGE))


def _run(
    seed: int,
    guarantees: Iterable[SessionGuarantee],
    enforce: bool,
    updates: int,
) -> Tuple[Deployment, Dict[str, int]]:
    policy = ReplicationPolicy.conference_example(lazy_interval=4.0)
    deployment = build_tree(
        policy=policy,
        n_caches=2,
        n_readers_per_cache=0,
        pages={PAGE: "<h2>program</h2>"},
        seed=seed,
        master_guarantees=tuple(guarantees) if enforce else (),
    )
    site = deployment.site
    # A roaming client with two identities... no: one session, two stubs
    # bound to different caches, sharing the session object so monotonic
    # reads spans stores (the Bayou scenario).
    roamer_a = site.bind_browser(
        "space-roamer-a", "roamer",
        read_store="cache-0",
        guarantees=tuple(guarantees) if enforce else (),
    )
    roamer_b = site.bind_browser(
        "space-roamer-b", "roamer",
        read_store="cache-1",
        guarantees=tuple(guarantees) if enforce else (),
    )
    # Share one session state across both bindings: same client roaming.
    roamer_b.bound.replication.session = roamer_a.bound.replication.session
    deployment.browsers["roamer-a"] = roamer_a
    deployment.browsers["roamer-b"] = roamer_b

    sim = deployment.sim
    Process(sim, _master(deployment, updates), "master")
    Process(sim, _roamer(deployment, updates + 2), "roamer")
    sim.run_until_idle()
    sim.run(until=sim.now + 2 * policy.lazy_interval)

    trace = site.trace
    violations = {
        "ryw": len(checkers.check_read_your_writes(trace, clients=["master"])),
        "mr": len(checkers.check_monotonic_reads(trace, clients=["roamer"])),
    }
    return deployment, violations


def run_x7_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One X7 point: the roaming workload with enforcement on or off."""
    deployment, violations = _run(
        seed=seed,
        guarantees=(
            SessionGuarantee.READ_YOUR_WRITES,
            SessionGuarantee.MONOTONIC_READS,
        ),
        enforce=config["enforce"],
        updates=config["updates"],
    )
    demands = sum(
        engine.counters["tx:demand"] for engine in deployment.engines
    )
    latencies = [
        value
        for browser in deployment.browsers.values()
        for value in browser.bound.replication.read_latencies
    ]
    return {
        "violations": violations,
        "demands": demands,
        "read_latency": mean(latencies),
    }


def run_sessions(seed: int = 0, updates: int = 8, parallel: int = 1,
                 cache_dir: Optional[str] = None) -> ExperimentResult:
    """X7: enforcement on/off for RYW (master) and MR (roaming reader)."""
    result = ExperimentResult(
        name="X7: Session-guarantee enforcement -- cost and effect",
        headers=[
            "enforcement", "RYW violations", "MR violations",
            "demand-updates", "mean read latency (s)",
        ],
    )
    spec = SweepSpec(name="x7-sessions", run_point=run_x7_point,
                     base_seed=seed, paired=True)
    spec.add("off (check only)", enforce=False, updates=updates)
    spec.add("on (RYW + MR enforced)", enforce=True, updates=updates)
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, point in measured.items():
        result.add_row(
            label,
            point["violations"]["ryw"],
            point["violations"]["mr"],
            point["demands"],
            f"{point['read_latency']:.4f}",
        )
    result.data["measured"] = measured
    off, on = measured["off (check only)"], measured["on (RYW + MR enforced)"]
    result.claim("with enforcement off, the lazy 4s push window makes the "
                 "master miss its own writes", off["violations"]["ryw"] > 0)
    result.claim("enforcement leaves no RYW or MR violation",
                 on["violations"] == {"ryw": 0, "mr": 0})
    result.claim(
        "enforcement pays in demand-updates and read latency",
        on["demands"] > off["demands"]
        and on["read_latency"] >= off["read_latency"],
    )
    return result
