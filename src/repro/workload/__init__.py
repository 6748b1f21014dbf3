"""Workload generation (S13).

Synthetic but realistic Web traffic: Zipf page popularity, Poisson think
times, single-master incremental updates (the paper's conference page),
multi-writer overwrite streams (whiteboards), and scenario builders that
assemble whole deployments (server + mirrors + caches + browsers) in one
call.
"""

from repro.workload.cohort import cohort_sizes
from repro.workload.generator import (
    ReaderWorkload,
    WriterWorkload,
    ZipfPagePicker,
)
from repro.workload.profiles import (
    PROFILES,
    WorkloadProfile,
    get_profile,
    run_profile,
)
from repro.workload.scenarios import Deployment, build_tree, conference_deployment

__all__ = [
    "Deployment",
    "PROFILES",
    "ReaderWorkload",
    "WorkloadProfile",
    "WriterWorkload",
    "ZipfPagePicker",
    "build_tree",
    "cohort_sizes",
    "conference_deployment",
    "get_profile",
    "run_profile",
]
