"""Experiment X5: reliability as a side effect of the coherence model.

Section 4.2's end-to-end argument: the prototype used TCP "for the sake of
simplicity", but since PRAM ordering is enforced at the replication layer
with WiDs, UDP would do -- "simply by changing the object-outdate reaction
parameter from wait to demand, reliability comes as a side-effect of the
coherence model".

This experiment runs the same single-master workload over:

1. the reliable FIFO transport (TCP) with reaction *wait*;
2. the lossy unordered transport (UDP) with reaction *wait* -- pushes can
   be lost forever, replicas stall;
3. the lossy unordered transport (UDP) with reaction *demand* -- gap
   detection triggers demand-updates that recover the missing writes.

It verifies that (3) converges like (1) while (2) does not, and counts the
recovery traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.coherence import checkers
from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, measure
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    ReplicationPolicy,
)
from repro.sim.process import Delay, Process, WaitFor
from repro.workload.scenarios import Deployment, build_tree

PAGE = "live.html"


def _writer(deployment: Deployment, writes: int,
            heartbeats: int = 6) -> Generator:
    master = deployment.browsers["master"]
    for index in range(writes):
        yield Delay(0.5)
        yield WaitFor(master.write_page(PAGE, f"<p>rev {index}</p>"))
    # WiD gap detection needs a successor: a lost push of the *final*
    # write is invisible until another write arrives.  Real masters keep
    # writing; these heartbeats play that role so the demand variant gets
    # its recovery opportunity for trailing losses.
    for index in range(heartbeats):
        yield Delay(1.0)
        yield WaitFor(master.write_page("heartbeat.html", f"<p>{index}</p>"))


def _reader(deployment: Deployment, name: str, reads: int) -> Generator:
    browser = deployment.browsers[name]
    for _ in range(reads):
        yield Delay(0.7)
        try:
            yield WaitFor(browser.read_page(PAGE))
        except Exception:
            pass


def _run_variant(
    seed: int,
    reliable: bool,
    reaction: OutdateReaction,
    loss_rate: float,
    writes: int,
    horizon: float,
) -> Dict[str, object]:
    policy = ReplicationPolicy(
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        object_outdate_reaction=reaction,
    )
    deployment = build_tree(
        policy=policy,
        n_caches=3,
        n_readers_per_cache=1,
        pages={PAGE: "<p>rev -1</p>"},
        seed=seed,
        loss_rate=loss_rate if not reliable else 0.0,
        reliable_transport=reliable,
    )
    sim = deployment.sim
    # Writes go over a request with timeout+retry so the master makes
    # progress even when its own messages are lost.
    deployment.browsers["master"].bound.replication.request_timeout = 1.0
    deployment.browsers["master"].bound.replication.request_retries = 10
    for name, browser in deployment.browsers.items():
        if name != "master":
            browser.bound.replication.request_timeout = 1.0
            browser.bound.replication.request_retries = 10
    Process(sim, _writer(deployment, writes), "writer")
    for name in deployment.browsers:
        if name != "master":
            Process(sim, _reader(deployment, name, 10), name)
    sim.run(until=horizon)

    server_version = deployment.store("server").version().get("master", 0)
    cache_versions = [
        cache.version().get("master", 0) for cache in deployment.caches
    ]
    metrics = measure(deployment)
    demand_total = sum(
        engine.counters["tx:demand"] for engine in deployment.engines
    )
    # WiD gap detection can only fire when a *later* record arrives, so a
    # lost push of the final write is unrecoverable until the next write;
    # a lag of one is therefore the protocol's best possible at quiescence.
    lag = server_version - min(cache_versions) if cache_versions else 0
    return {
        "server_version": server_version,
        "cache_versions": cache_versions,
        "lag": lag,
        "caught_up": lag <= 1,
        "pram_violations": len(checkers.check_pram(deployment.site.trace)),
        "demands": demand_total,
        "dropped_datagrams": deployment.network.stats.datagrams_dropped_loss,
        "messages": metrics.traffic.datagrams_sent,
    }


def run_x5_point(config: Dict[str, Any], seed: int) -> Dict[str, object]:
    """One X5 point: one (transport, outdate-reaction) variant."""
    return _run_variant(
        seed=seed,
        reliable=config["reliable"],
        reaction=OutdateReaction(config["reaction"]),
        loss_rate=config["loss_rate"],
        writes=config["writes"],
        horizon=config["horizon"],
    )


def run_endtoend(
    seed: int = 0,
    loss_rate: float = 0.15,
    writes: int = 15,
    horizon: float = 60.0,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X5: TCP/wait vs UDP/wait vs UDP/demand."""
    result = ExperimentResult(
        name="X5: Reliability from the coherence model (end-to-end argument)",
        headers=[
            "variant", "server seq", "cache seqs", "caught up",
            "PRAM viol.", "demands", "datagrams lost", "msgs",
        ],
    )
    variants = [
        ("TCP + wait", True, OutdateReaction.WAIT),
        ("UDP + wait", False, OutdateReaction.WAIT),
        ("UDP + demand", False, OutdateReaction.DEMAND),
    ]
    spec = SweepSpec(name="x5-endtoend", run_point=run_x5_point,
                     base_seed=seed, paired=True)
    for label, reliable, reaction in variants:
        spec.add(label, reliable=reliable, reaction=reaction,
                 loss_rate=loss_rate, writes=writes, horizon=horizon)
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, run in measured.items():
        result.add_row(
            label,
            run["server_version"],
            ",".join(str(v) for v in run["cache_versions"]),
            run["caught_up"],
            run["pram_violations"],
            run["demands"],
            run["dropped_datagrams"],
            run["messages"],
        )
    result.data["measured"] = measured
    tcp, udp_wait, udp_demand = (measured[label] for label, _, _ in variants)
    result.claim("TCP + wait catches up with no PRAM violation",
                 tcp["caught_up"] and tcp["pram_violations"] == 0)
    result.claim("UDP + wait does not catch up", not udp_wait["caught_up"])
    result.claim(
        "UDP + demand catches up with no PRAM violation by demanding the "
        "lost pushes: reliability as a side effect of PRAM",
        udp_demand["caught_up"] and udp_demand["pram_violations"] == 0
        and udp_demand["demands"] > 0,
    )
    result.claim("UDP + demand sends fewer than 3x TCP + wait's messages",
                 udp_demand["messages"] < 3 * tcp["messages"])
    return result
