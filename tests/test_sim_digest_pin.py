"""The ``sim`` model, pinned: the ``--quick`` digest of each benchmark workload.

``benchmarks/perf/workloads.sim_digest`` hashes four parts of a seeded
``sim`` run: the kernel's event count, every network counter, the
per-kind engine counters and the SHA-256 of the time-free coherence
signature.  Each part is pinned below beside the digest, so a moved
digest names the part that moved it.

- A change meant only to make the code faster (or smaller) leaves all
  four parts and the digests unchanged.
- A change to the simulation kernel alone -- how many events carry the
  same deliveries, say -- may move ``events`` and with it the digest; it
  must leave the other three parts unchanged.
- A deliberate model change (one that alters what goes on the wire or
  which decisions a store takes) re-records what it moves here, in the
  same commit.

The benchmark's ``baseline.json`` is not touched by such a change: it is
re-recorded by the one change to the benchmark itself (ROADMAP item
2(a)).
"""

import hashlib

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.workloads import QUICK, sim_rep
from repro.coherence.trace import coherence_signature

DIGESTS = {
    "sim_read_heavy":
        "9237056e0dc588726ef47ad0955867a6b9ecf4778902693b0664497aac3a9613",
    "sim_write_fanout":
        "323f7c233b83bd73249041e22d7f04d8f49a4a5c68ea3743d4e43d8a09c4a807",
    "sim_faults":
        "bcba5c000636db7c76864b7a42c1ce19df69ae8fb18dac3f8578415dc9ba36d0",
}

#: Every counter of ``NetworkStats`` that is not zero on all three runs.
_QUIET = {
    "datagrams_dropped_loss": 0,
    "datagrams_dropped_partition": 0,
    "datagrams_dropped_unregistered": 0,
    "frames_received": 0,
    "frames_sent": 0,
}

PARTS = {
    "sim_read_heavy": {
        "events": 3883,
        "network": {
            "bytes_delivered": 1858905, "bytes_sent": 1858905,
            "datagrams_delivered": 2588, "datagrams_sent": 2588,
            "datagrams_dropped_crashed": 0, **_QUIET,
        },
        "traffic": {
            "rx:demand": 64, "rx:invalidate": 40, "rx:read": 1200,
            "rx:write": 10, "tx:demand": 64, "tx:demand_reply": 64,
            "tx:invalidate": 40, "tx:read_reply": 1200, "tx:write_ack": 10,
        },
        "signature":
            "d6cff34e5ce23d4cde1aee20f07380aa6bb7762586dd6b523427630a18917abf",
    },
    "sim_write_fanout": {
        "events": 781,
        "network": {
            "bytes_delivered": 1498181, "bytes_sent": 1498181,
            "datagrams_delivered": 1380, "datagrams_sent": 1380,
            "datagrams_dropped_crashed": 0, **_QUIET,
        },
        "traffic": {
            "rx:demand": 60, "rx:read": 150, "rx:update": 900,
            "rx:write": 30, "tx:demand": 60, "tx:demand_reply": 60,
            "tx:read_reply": 150, "tx:update": 900, "tx:write_ack": 30,
        },
        "signature":
            "35482a8b11fe3dddbef9d646cf7d6ef156ab42d0a690f935260ea5015be190b1",
    },
    "sim_faults": {
        "events": 5981,
        "network": {
            "bytes_delivered": 2165731, "bytes_sent": 2356347,
            "datagrams_delivered": 2821, "datagrams_sent": 3377,
            "datagrams_dropped_crashed": 556, **_QUIET,
        },
        "traffic": {
            "rx:demand": 42, "rx:read": 1240, "rx:update": 177,
            "rx:write": 40, "tx:demand": 42, "tx:demand_reply": 42,
            "tx:read_reply": 1240, "tx:update": 240, "tx:write_ack": 40,
        },
        "signature":
            "a49988768a35b98faf9dd8420beb8f0fb48f24cf163ad94fa1869bc58ae77e6d",
    },
}


def _spy_on_digest(monkeypatch):
    """Record the parts of every ``sim_digest`` call beside its result."""
    real = workloads.sim_digest
    calls = []

    def spy(deployment, traffic):
        signature = coherence_signature(deployment.site.trace)
        calls.append(({
            "events": deployment.sim.events_fired,
            "network": deployment.network.stats.as_dict(),
            "traffic": dict(traffic.by_kind),
            "signature": hashlib.sha256(
                repr(sorted(signature.items())).encode("utf-8")
            ).hexdigest(),
        }, real(deployment, traffic)))
        return calls[-1][1]

    monkeypatch.setattr(workloads, "sim_digest", spy)
    return calls


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_quick_digest_at_seed_7(workload, monkeypatch):
    calls = _spy_on_digest(monkeypatch)
    rep = sim_rep(QUICK[workload], 7, False)
    assert rep.failed == 0
    assert rep.violations == []
    [(parts, digest)] = calls
    assert parts == PARTS[workload]
    assert rep.digest == digest == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(PARTS))
def test_pinned_parts_hash_to_the_pinned_digest(workload):
    """The parts above are exactly what ``sim_digest`` hashes."""
    parts = PARTS[workload]
    hashed = (
        parts["events"],
        sorted(parts["network"].items()),
        sorted(parts["traffic"].items()),
        parts["signature"],
    )
    assert hashlib.sha256(
        repr(hashed).encode("utf-8")
    ).hexdigest() == DIGESTS[workload]
