"""The ``sim`` model, pinned: the ``--quick`` digest of each benchmark workload.

``benchmarks/perf/workloads.sim_digest`` hashes everything a seeded
``sim`` run must reproduce -- the kernel's event count, every network
counter, the per-kind engine counters and the time-free coherence
signature.  A change meant only to make the code faster (or smaller)
must leave all three digests below unchanged.  A deliberate model change
(one that alters what goes on the wire or which decisions a store takes)
re-records the digests it moves here, in the same commit.  The
benchmark's ``baseline.json`` is not touched by such a change: it is
re-recorded by the one change to the benchmark itself (ROADMAP item
2(a)).
"""

import pytest

from benchmarks.perf.workloads import QUICK, sim_rep

DIGESTS = {
    "sim_read_heavy":
        "140e146c7925f51028c07ea0572d7e2de545d9a1f5031037ac4260a42623f919",
    "sim_write_fanout":
        "8ddd1898c9de3014738345ab12766fe1c9262c05cfd1eabe8ae6cd9a98a25d9e",
    "sim_faults":
        "92cf2643eb375633c27bdcc50e86a8ba8ec6f6f08578c55fe65a604e0b842092",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_quick_digest_at_seed_7(workload):
    rep = sim_rep(QUICK[workload], 7, False)
    assert rep.failed == 0
    assert rep.violations == []
    assert rep.digest == DIGESTS[workload]
