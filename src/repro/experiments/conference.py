"""Experiments F3 and F4: the paper's conference-home-page prototype.

Reproduces Section 4 end to end: the Fig. 3 topology (client M writing
directly to the Web server and reading from cache M with read-your-writes;
client U reading from cache U with no client-based model), the Table 2
policy, and the Fig. 4 protocol mechanics (WiD sequencing, buffered
out-of-order updates, demand-update on RYW misses).
"""

from __future__ import annotations

from typing import Generator, List

from repro.coherence import checkers
from repro.experiments.harness import ExperimentResult, measure
from repro.sim.process import Delay, Process, WaitFor
from repro.workload.scenarios import Deployment, conference_deployment


def _master_script(deployment: Deployment, updates: int,
                   read_back: bool) -> Generator:
    """The web master: incremental updates, verifying each write landed."""
    master = deployment.browsers["master"]
    for index in range(updates):
        yield Delay(1.0)
        yield WaitFor(
            master.append_to_page("program.html", f"<li>talk {index}</li>")
        )
        if read_back:
            # The paper's RYW use case: "he must be able to check whether
            # the write has been done correctly" -- a read via cache M.
            page = yield WaitFor(master.read_page("program.html"))
            assert f"talk {index}" in page["content"], (
                "read-your-writes returned a copy missing the master's own "
                f"update {index}"
            )


def _user_script(deployment: Deployment, reads: int) -> Generator:
    """An interested participant polling the program page."""
    user = deployment.browsers["user"]
    for _ in range(reads):
        yield Delay(1.5)
        yield WaitFor(user.read_page("program.html"))


def run_conference(
    seed: int = 0,
    updates: int = 10,
    reads: int = 12,
    lazy_interval: float = 5.0,
    read_back: bool = True,
) -> ExperimentResult:
    """Run the prototype scenario and validate its coherence claims."""
    deployment = conference_deployment(seed=seed, lazy_interval=lazy_interval)
    sim = deployment.sim
    Process(sim, _master_script(deployment, updates, read_back), "master")
    Process(sim, _user_script(deployment, reads), "user")
    sim.run_until_idle()
    # Let the final lazy push drain so caches converge.
    sim.run(until=sim.now + 2 * lazy_interval)

    trace = deployment.site.trace
    pram = checkers.check_pram(trace)
    ryw = checkers.check_read_your_writes(trace, clients=["master"])
    metrics = measure(deployment)
    cache_m = deployment.store("cache-0").engine
    cache_u = deployment.store("cache-1").engine

    result = ExperimentResult(
        name="F3/F4: Conference home page under PRAM + Read-Your-Writes",
        headers=["Measure", "Value"],
    )
    result.add_row("master updates", updates)
    result.add_row("user reads", reads)
    result.add_row("PRAM violations (all stores)", len(pram))
    result.add_row("RYW violations (master)", len(ryw))
    result.add_row("demand-updates from cache M", cache_m.counters["tx:demand"])
    result.add_row("demand-updates from cache U", cache_u.counters["tx:demand"])
    result.add_row("push updates received by cache M",
                   cache_m.counters["rx:update"])
    result.add_row("push updates received by cache U",
                   cache_u.counters["rx:update"])
    result.add_row("coherence messages", metrics.traffic.coherence_messages)
    result.add_row("stale read fraction", f"{metrics.stale_fraction:.3f}")
    server_state = deployment.store("server").state()
    result.add_row(
        "final program.html version",
        server_state["program.html"]["version"],
    )
    result.claim("no store violates PRAM", not pram)
    result.claim("client M never misses its own writes (RYW)", not ryw)
    result.claim("every store converges to the server's content",
                 _converged(deployment))
    result.claim(
        "cache M enforces RYW by demand-updates while cache U waits for "
        "the periodic pushes: cache M demands more than cache U",
        cache_m.counters["tx:demand"] > cache_u.counters["tx:demand"],
    )
    return result


def _converged(deployment: Deployment) -> bool:
    """Content convergence against the server.

    Local version counters and last-modified stamps are replica-local
    bookkeeping; convergence means every page a store holds carries the
    server's content.
    """
    states = deployment.site.store_states()
    reference = states["server"]
    for state in states.values():
        for name, page in state.items():
            if name not in reference:
                return False
            if page["content"] != reference[name]["content"]:
                return False
    return True


def run_fig4_wid_flow(seed: int = 0) -> ExperimentResult:
    """Trace the Fig. 4 mechanics explicitly: WiDs and expected-write state.

    Issues three incremental writes, captures the per-store expected-write
    vectors after each propagation round, and verifies the buffered
    out-of-order path by checking the final vectors agree.
    """
    deployment = conference_deployment(seed=seed, lazy_interval=2.0)
    sim = deployment.sim
    master = deployment.browsers["master"]
    vectors: List[tuple] = []

    def script() -> Generator:
        for index in range(3):
            yield WaitFor(master.append_to_page("index.html", f"<p>{index}</p>"))
            yield Delay(2.5)  # beyond the lazy interval: push lands
            vectors.append(
                (
                    deployment.store("server").version().get("master", 0),
                    deployment.store("cache-0").version().get("master", 0),
                    deployment.store("cache-1").version().get("master", 0),
                )
            )

    Process(sim, script(), "fig4")
    sim.run_until_idle()
    sim.run(until=sim.now + 5.0)

    result = ExperimentResult(
        name="F4: WiD flow and expected-write vectors",
        headers=["After write #", "server expects", "cache M expects",
                 "cache U expects"],
    )
    for index, (server_v, cm, cu) in enumerate(vectors, start=1):
        result.add_row(index, server_v, cm, cu)
    result.claim(
        "after each write's propagation round every store expects the "
        "same next WiD: (1,1,1), (2,2,2), (3,3,3)",
        vectors == [(1, 1, 1), (2, 2, 2), (3, 3, 3)],
    )
    result.claim("no store violates PRAM",
                 not checkers.check_pram(deployment.site.trace))
    return result
