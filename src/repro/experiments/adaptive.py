"""Experiment X8 (paper §5 future work): self-adaptive policies.

A magazine-like object lives through two phases: an *editing* phase
(writes dominate, few reads) and a *publication* phase (reads dominate,
occasional corrections).  A static policy must pick one point in the
Table-1 space for both phases; the adaptive controller retunes propagation
(update vs invalidate) and transfer instant (immediate vs lazy) as the
mix shifts.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, measure
from repro.replication.adaptive import AdaptiveConfig, AdaptivePolicyController
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
)
from repro.sim.process import Delay, Process, WaitFor
from repro.workload.scenarios import Deployment, build_tree

PAGE = "issue.html"


def _editor(deployment: Deployment, edits: int) -> Generator:
    master = deployment.browsers["master"]
    for index in range(edits):
        yield Delay(0.4)
        yield WaitFor(master.append_to_page(PAGE, f"<p>draft {index}</p>"))


def _audience(deployment: Deployment, name: str, start: float,
              reads: int) -> Generator:
    browser = deployment.browsers[name]
    yield Delay(start)
    for _ in range(reads):
        yield Delay(0.8)
        try:
            yield WaitFor(browser.read_page(PAGE))
        except Exception:
            pass


def _run(seed: int, adaptive: bool, edits: int, reads: int,
         n_caches: int) -> Tuple[Deployment, Optional[list]]:
    policy = ReplicationPolicy(
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
        lazy_interval=2.0,
    )
    deployment = build_tree(
        policy=policy, n_caches=n_caches, n_readers_per_cache=1,
        pages={PAGE: "<h1>magazine</h1>"}, seed=seed,
    )
    sim = deployment.sim
    events = None
    if adaptive:
        controller = AdaptivePolicyController(
            dso=deployment.site.dso,
            primary=deployment.server.engine,
            schedule=lambda delay, fn, daemon=False: sim.schedule(
                delay, fn, daemon=daemon),
            now=lambda: sim.now,
            config=AdaptiveConfig(interval=2.0, lazy_at_writes=4),
            observers=deployment.engines,
        )
        controller.start()
        events = controller.events
    # Phase 1: editing burst, no audience yet.
    Process(sim, _editor(deployment, edits), "editor")
    # Phase 2: the audience arrives once editing winds down.
    publication_time = edits * 0.4 + 2.0
    for name in list(deployment.browsers):
        if name.startswith("reader"):
            Process(sim, _audience(deployment, name, publication_time, reads),
                    name)
    sim.run_until_idle()
    sim.run(until=sim.now + 2 * policy.lazy_interval + 1.0)
    return deployment, events


def run_x8_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One X8 point: the two-phase workload, static or adaptive."""
    deployment, events = _run(
        seed, config["adaptive"], config["edits"], config["reads"],
        config["n_caches"],
    )
    return {"metrics": measure(deployment), "events": events or []}


def run_adaptive(seed: int = 0, edits: int = 20, reads: int = 10,
                 n_caches: int = 4, parallel: int = 1,
                 cache_dir: Optional[str] = None) -> ExperimentResult:
    """X8: static policy vs the self-adaptive controller."""
    result = ExperimentResult(
        name="X8: Self-adaptive policies (paper §5 future work)",
        headers=["variant", "bytes on wire", "coherence msgs",
                 "stale read fraction", "mean read latency (s)",
                 "adaptations"],
    )
    spec = SweepSpec(name="x8-adaptive", run_point=run_x8_point,
                     base_seed=seed, paired=True)
    for label, adaptive in (("static (update/immediate)", False),
                            ("adaptive", True)):
        spec.add(label, adaptive=adaptive, edits=edits, reads=reads,
                 n_caches=n_caches)
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, point in measured.items():
        metrics = point["metrics"]
        result.add_row(
            label,
            metrics.traffic.bytes_sent,
            metrics.traffic.coherence_messages,
            f"{metrics.stale_fraction:.3f}",
            f"{metrics.mean_read_latency:.4f}",
            len(point["events"]),
        )
    result.data["measured"] = measured
    adaptations = measured["adaptive"]["events"]
    if adaptations:
        for event in adaptations:
            result.note(
                f"t={event.time:.1f}s: {event.parameter} "
                f"{event.old} -> {event.new} "
                f"(window: {event.reads} reads / {event.writes} writes)"
            )
    static = measured["static (update/immediate)"]["metrics"]
    adaptive = measured["adaptive"]["metrics"]
    result.claim(
        "adaptive sends fewer coherence messages and fewer bytes than "
        "static",
        adaptive.traffic.coherence_messages
        < static.traffic.coherence_messages
        and adaptive.traffic.bytes_sent < static.traffic.bytes_sent,
    )
    result.claim("the controller adapts at least twice",
                 len(adaptations) >= 2)
    return result
