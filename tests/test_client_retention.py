"""What a finished run keeps per client, on a read-heavy tree.

Checked on the push-invalidate tree of the ``--quick`` ``sim_read_heavy``
benchmark workload (4 caches x 10 readers, 10 writes) at seed 7, at the
point where ``sim_digest`` starts:

- no workload still holds a Mersenne-Twister state: each releases its
  streams after its last draw, so the live ``random.Random`` count does
  not grow with the number of clients;
- every read reply's version is the trace's pooled stamp dict, so each
  distinct ``ReadEvent.served_vc`` is one object.

Both bounds are object counts, so they do not depend on a Python
version's object sizes.
"""

import functools
import gc
import random

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.workloads import QUICK, sim_rep
from repro.coherence.trace import ReadEvent
from repro.workload.generator import ReaderWorkload, WriterWorkload

PARAMS = QUICK["sim_read_heavy"]


@functools.lru_cache(maxsize=None)
def end_of_run():
    """(live workloads, live ``random.Random``s, trace) at the digest."""
    real_digest = workloads.sim_digest
    seen = {}

    def spy(deployment, traffic):
        gc.collect()
        live = gc.get_objects()
        seen["workloads"] = [o for o in live
                             if isinstance(o, (ReaderWorkload, WriterWorkload))]
        seen["randoms"] = [o for o in live if isinstance(o, random.Random)]
        seen["trace"] = deployment.site.trace
        return real_digest(deployment, traffic)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "sim_digest", spy)
        rep = sim_rep(PARAMS, seed=7, full_checks=True)
    assert rep.violations == []
    return seen["workloads"], seen["randoms"], seen["trace"]


def test_no_workload_keeps_a_random_state():
    live_workloads, randoms, _ = end_of_run()
    clients = PARAMS.caches * PARAMS.readers_per_cache
    assert len(live_workloads) == clients + 1  # the readers and the master
    streams = [w.rng for w in live_workloads]
    streams += [w.picker.rng for w in live_workloads
                if isinstance(w, ReaderWorkload)]
    held = [value for stream in streams for value in vars(stream).values()
            if isinstance(value, random.Random)]
    assert held == []
    # What is left belongs to the simulator, not to its clients.
    assert len(randoms) < PARAMS.caches


def test_each_distinct_served_version_is_one_object():
    _, _, trace = end_of_run()
    served = [e.served_vc for e in trace.events if isinstance(e, ReadEvent)]
    assert len(served) == PARAMS.caches * PARAMS.readers_per_cache * (
        PARAMS.reads_per_client)
    objects = len({id(version) for version in served})
    values = len({frozenset(version.items()) for version in served})
    assert objects == values
    assert values < PARAMS.writes
