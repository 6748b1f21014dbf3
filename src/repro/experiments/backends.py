"""Experiment X9: one protocol stack, three substrates, same behaviour.

Runs the identical scripted smoke scenario on the deterministic
simulator, on the wall-clock thread runtime, and on the multi-process
socket runtime through the sweep runner (:mod:`repro.exec.live`), then
compares the time-free coherence signatures.  This is the paper's
portability claim made operational: the replication strategy is a
property of the object, not of the runtime it happens to execute on.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.live import run_live_smoke
from repro.experiments.harness import ExperimentResult


def run_backend_smoke(
    seed: int = 0,
    writes: int = 3,
    n_caches: int = 2,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """X9: sim/live/live-socket backend parity smoke (~2s wall-clock)."""
    measured = run_live_smoke(
        backends=("sim", "live", "live-socket"), writes=writes,
        n_caches=n_caches, seed=seed, parallel=parallel,
        cache_dir=cache_dir,
    )
    result = ExperimentResult(
        name="X9: Backend parity -- the same stack in virtual and wall-clock "
             "time",
        headers=["backend", "writes", "converged", "reads ok",
                 "datagrams delivered", "signature"],
    )
    reference = measured["sim"]["signature"]
    for label, point in measured.items():
        result.add_row(
            label,
            point["writes"],
            "yes" if point["converged"] else "NO",
            point["reads_ok"],
            point["datagrams_delivered"],
            "= sim" if point["signature"] == reference else "DIVERGED",
        )
    result.data["measured"] = measured
    points = measured.values()
    result.claim("every backend converges",
                 all(point["converged"] for point in points))
    result.claim("every reader reads the last revision on every backend",
                 all(point["reads_ok"] == n_caches for point in points))
    result.claim("every backend's coherence signature equals sim's",
                 all(point["signature"] == reference for point in points))
    result.note(
        "All rows ran the identical Deployment scenario; the signature "
        "column compares per-store apply/install sequences and per-client "
        "read/write observations with all timestamps stripped.  The "
        "live-socket row runs every store in its own OS process."
    )
    return result
