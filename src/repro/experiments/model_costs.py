"""Experiment X4: the cost ladder of object-based coherence models.

Section 3.2.1 orders the models by strength and argues the stronger ones
cost more to implement.  This experiment runs one identical multi-client
workload under every model and measures what each level costs (messages,
latency) and what the weaker levels give up (checker violations against
the stronger models' guarantees).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.coherence import checkers
from repro.coherence.models import CoherenceModel
from repro.exec import SweepSpec, run_sweep
from repro.experiments.harness import ExperimentResult, measure
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    ReplicationPolicy,
    WriteSet,
)
from repro.sim.process import Process
from repro.workload.generator import ReaderWorkload, WriterWorkload
from repro.workload.scenarios import build_tree

PAGES = {f"doc-{i}.html": "seed" for i in range(4)}

#: Strong-to-weak order used in the report.
MODEL_ORDER = [
    CoherenceModel.SEQUENTIAL,
    CoherenceModel.CAUSAL,
    CoherenceModel.PRAM,
    CoherenceModel.FIFO,
    CoherenceModel.EVENTUAL,
]


def run_x4_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One X4 point: the full multi-writer workload under one model."""
    model = CoherenceModel(config["model"])
    n_caches = config["n_caches"]
    policy = ReplicationPolicy(
        model=model,
        write_set=WriteSet.MULTIPLE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
        access_transfer=AccessTransfer.PARTIAL,
    )
    deployment = build_tree(
        policy=policy,
        n_caches=n_caches,
        n_readers_per_cache=1,
        pages=dict(PAGES),
        seed=seed,
        designated_writer=None,
    )
    sim = deployment.sim
    rng = sim.rng.fork("x4")
    # Writers bound to caches: under the strong models their writes are
    # forwarded up to the primary (two round trips); eventual accepts
    # them locally at the cache (one) -- the write-latency ladder.
    writers = []
    for index in range(config["n_writers"]):
        browser = deployment.site.bind_browser(
            f"space-writer-{index}",
            f"writer-{index}",
            read_store=deployment.caches[index % n_caches].address,
            write_store=deployment.caches[index % n_caches].address,
        )
        deployment.browsers[f"writer-{index}"] = browser
        writers.append(
            WriterWorkload(
                browser,
                pages=list(PAGES),
                rng=rng.fork(f"writer-{index}"),
                interval=0.8,
                operations=config["writes_per_writer"],
                incremental=(model is not CoherenceModel.FIFO
                             and model is not CoherenceModel.EVENTUAL),
            )
        )
    readers: List[ReaderWorkload] = [
        ReaderWorkload(
            browser,
            pages=list(PAGES),
            rng=rng.fork(name),
            mean_think=0.7,
            operations=config["reads_per_client"],
        )
        for name, browser in deployment.browsers.items()
        if name.startswith("reader")
    ]
    for index, workload in enumerate(writers + readers):
        Process(sim, workload.run(), name=f"x4-{index}")
    sim.run_until_idle()
    sim.run(until=sim.now + 2 * policy.lazy_interval)

    trace = deployment.site.trace
    pram_violations = checkers.check_pram(
        trace, require_gapless=(model in (
            CoherenceModel.SEQUENTIAL, CoherenceModel.CAUSAL,
            CoherenceModel.PRAM,
        )),
    )
    seq_violations = checkers.check_sequential(trace)
    return {
        "metrics": measure(deployment),
        "pram_violations": len(pram_violations),
        "seq_violations": len(seq_violations),
        "dropped": sum(
            engine.ordering.dropped for engine in deployment.engines
        ),
        "converged": content_converged(deployment),
    }


def run_model_costs(
    seed: int = 0,
    writes_per_writer: int = 12,
    n_writers: int = 3,
    n_caches: int = 3,
    reads_per_client: int = 10,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Measure every model under the same multi-writer workload."""
    result = ExperimentResult(
        name="X4: Coherence-model cost ladder",
        headers=[
            "model", "msgs", "bytes", "mean write lat (s)",
            "mean read lat (s)", "PRAM viol.", "dropped", "converged",
        ],
    )
    spec = SweepSpec(name="x4-model-costs", run_point=run_x4_point,
                     base_seed=seed, paired=True)
    for model in MODEL_ORDER:
        spec.add(
            model.value,
            model=model,
            writes_per_writer=writes_per_writer,
            n_writers=n_writers,
            n_caches=n_caches,
            reads_per_client=reads_per_client,
        )
    measured = run_sweep(spec, parallel=parallel, cache_dir=cache_dir)
    for label, point in measured.items():
        metrics = point["metrics"]
        result.add_row(
            label,
            metrics.traffic.datagrams_sent,
            metrics.traffic.bytes_sent,
            f"{metrics.mean_write_latency:.4f}",
            f"{metrics.mean_read_latency:.4f}",
            point["pram_violations"],
            point["dropped"],
            point["converged"],
        )
    result.data["measured"] = measured
    result.note(
        "Writers are bound to caches: strong models forward writes to the "
        "primary (extra round trip) while eventual accepts them locally.  "
        "FIFO and eventual legitimately drop superseded writes.  "
        "Convergence is content-subset convergence: every page a partial "
        "replica holds (and has not been told is stale) matches the "
        "primary's copy."
    )
    sequential, pram, eventual = (
        measured[name]["metrics"] for name in ("sequential", "pram", "eventual")
    )
    result.claim("eventual writes faster than sequential",
                 eventual.mean_write_latency < sequential.mean_write_latency)
    result.claim("eventual ships fewer bytes than pram",
                 eventual.traffic.bytes_sent < pram.traffic.bytes_sent)
    result.claim("every model converges",
                 all(point["converged"] for point in measured.values()))
    result.claim("sequential, causal and pram show no PRAM violation",
                 all(measured[name]["pram_violations"] == 0
                     for name in ("sequential", "causal", "pram")))
    return result


def content_converged(deployment) -> bool:
    """Content-subset convergence against the primary.

    Caches are partial replicas, so full-state equality is the wrong
    test; instead every valid page a store holds must match the primary's
    copy *by content*.  Version counters and last-modified stamps are
    replica-local bookkeeping and excluded.
    """
    reference = deployment.store("server").state()
    for store in deployment.site.stores():
        state = store.state()
        invalid = store.engine.invalid_keys
        for key, page in state.items():
            if key in invalid:
                continue
            if key not in reference:
                return False
            if reference[key]["content"] != page["content"]:
                return False
    return True
