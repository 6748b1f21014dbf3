"""What a run's coherence history keeps, and what a node keeps of it.

The recorder stores each event as one row of typed columns and
hash-conses the version dicts the rows point at, and
``coherence_signature`` its entries, so a history keeps each distinct
value once while staying value-identical to an unshared one.  Checked on
the push-update tree of the ``--quick`` ``sim_write_fanout`` benchmark
workload (30 caches, 30 writes) under its own PRAM model, where the
applied stamps are pooled, and under a causal model, where every write
and every apply also records a dependency vector:

- every distinct version is one retained object;
- the signature equals the one the non-interning implementation below
  (the signature as it was before hash-consing) computes;
- the digest equals that of the same run recorded without pools, and
  the live heap under ``repro/coherence/`` is under a fixed share of
  that run's, measured in the same interpreter;
- on the ``--quick`` ``sim_read_heavy`` and ``sim_write_fanout`` trees,
  the rows cost at most :data:`ROW_BYTES` each.

A ``live-socket`` node's recorder hands every row to the hub as it goes
and keeps neither a row nor a pool entry.
"""

import dataclasses
import functools
import inspect
import pickle
import tracemalloc
from typing import Dict, List

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.workloads import QUICK, sim_rep
from repro.coherence import trace as trace_module
from repro.coherence.models import CoherenceModel
from repro.coherence.trace import (
    ApplyEvent,
    DropEvent,
    InstallEvent,
    ReadEvent,
    TraceRecorder,
    WriteAckEvent,
    WriteIssueEvent,
    coherence_signature,
)
from repro.coherence.vector_clock import VectorClock
from repro.core.ids import WriteId
from repro.runtime.node import NodeTransport

#: Ceiling on pooled / unpooled live ``repro/coherence/`` heap at the end
#: of a run.  On Python 3.11 it measures 0.31 (PRAM) and 0.24 (causal);
#: a history without pools (one dict kept per row, as before
#: hash-consing) reads 1.0.
POOLED_SHARE = 0.5

#: Ceiling on the bytes a recorded row costs: what the ``record_*``
#: bodies' appends hold at the end of a run (the columns, not the name,
#: write-id and version tables, which grow with participants and
#: writes, not with rows), per row.  A row's payload is 29 B
#: (a kind byte, a C double, five 32-bit ids); on Python 3.11 the quick
#: trees measure 30.2 B (read-heavy) and 29.6 B (write-fanout) with the
#: columns' over-allocation.  A
#: ``ReadEvent`` with its list slot and boxed time took about 112 B.
ROW_BYTES = 32

MODELS = [CoherenceModel.PRAM, CoherenceModel.CAUSAL]


def reference_signature(trace: TraceRecorder) -> Dict[str, List[tuple]]:
    """``coherence_signature`` without hash-consing: fresh tuples and
    strings for every event."""
    def vc(d):
        return tuple(sorted(d.items()))

    signature: Dict[str, List[tuple]] = {}

    def lane(kind, name):
        return signature.setdefault(f"{kind}:{name}", [])

    for event in trace.events:
        if isinstance(event, ApplyEvent):
            lane("store", event.store).append(
                ("apply", str(event.wid), event.global_seq,
                 vc(event.applied_vc))
            )
        elif isinstance(event, InstallEvent):
            lane("store", event.store).append(
                ("install", vc(event.version))
            )
        elif isinstance(event, DropEvent):
            lane("store", event.store).append(("drop", str(event.wid)))
        elif isinstance(event, WriteIssueEvent):
            lane("client", event.client_id).append(
                ("write", str(event.wid), event.store)
            )
        elif isinstance(event, WriteAckEvent):
            lane("client", event.client_id).append(
                ("ack", str(event.wid), event.store)
            )
        elif isinstance(event, ReadEvent):
            entry = ("read", event.store, vc(event.served_vc),
                     vc(event.requirement))
            if event.weight != 1:
                entry = entry + (event.weight,)
            lane("client", event.client_id).append(entry)
    return dict(sorted(signature.items()))


def _fresh_stamp(self, applied):
    """``TraceRecorder.stamp`` without the pool: a fresh copy each time."""
    clock = applied.copy()
    return clock, clock.view()


def _unpooled_version(self, version):
    """``TraceRecorder._version`` without the pool: every dict kept."""
    self._versions.append(version)
    return len(self._versions) - 1


@functools.lru_cache(maxsize=None)
def traced_rep(model, pooled, workload="sim_write_fanout"):
    """The quick ``workload`` rep at seed 7 under ``model``.

    Returns its digest, recorder and a ``tracemalloc`` snapshot taken
    where ``sim_digest`` starts, before the signature is built.  An
    unpooled run records through the stand-ins above, which copy or keep
    every version as it comes.
    """
    real_digest, real_policy = workloads.sim_digest, workloads.policy_for
    seen = {}

    def spy(deployment, traffic):
        seen["snapshot"] = tracemalloc.take_snapshot()
        seen["trace"] = deployment.site.trace
        return real_digest(deployment, traffic)

    def policy_for(strategy):
        policy = real_policy(strategy)
        if model is None:
            return policy
        return dataclasses.replace(policy, model=model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "sim_digest", spy)
        patch.setattr(workloads, "policy_for", policy_for)
        if not pooled:
            patch.setattr(TraceRecorder, "stamp", _fresh_stamp)
            patch.setattr(TraceRecorder, "_version", _unpooled_version)
        tracemalloc.start()
        try:
            rep = sim_rep(QUICK[workload], seed=7, full_checks=True)
        finally:
            tracemalloc.stop()
    assert rep.violations == []
    return rep.digest, seen["trace"], seen["snapshot"]


def distinct(dicts):
    """(objects, values) among ``dicts``."""
    return (len({id(d) for d in dicts}),
            len({frozenset(d.items()) for d in dicts}))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_each_distinct_version_is_one_object(model):
    _, trace, _ = traced_rep(model, pooled=True)
    applies = [e for e in trace.events if isinstance(e, ApplyEvent)]
    assert len(applies) == 930
    objects, values = distinct([e.applied_vc for e in applies])
    assert objects == values == 30
    deps = [e.deps for e in applies if e.deps is not None]
    deps += [e.deps for e in trace.events
             if isinstance(e, WriteIssueEvent) and e.deps is not None]
    if model is CoherenceModel.CAUSAL:
        assert len(deps) == 960 and distinct(deps) == (30, 30)
    else:
        assert deps == []
    _, unpooled, _ = traced_rep(model, pooled=False)
    objects, values = distinct([e.applied_vc for e in unpooled.events
                                if isinstance(e, ApplyEvent)])
    assert (objects, values) == (930, 30)


def test_equal_install_versions_and_deps_share_one_dict():
    trace = TraceRecorder()
    first = {"w": 1}
    trace.record_install(0.0, "cache-0", first)
    trace.record_install(1.0, "cache-1", {"w": 1})
    trace.record_write_issue(2.0, "w", WriteId("w", 2), "server",
                             deps={"w": 1})
    trace.record_apply(3.0, "server", WriteId("w", 2), {"w": 2},
                       deps={"w": 1})
    trace.record_install(4.0, "cache-0", {"w": 2})
    kept = [getattr(e, "version", None) or e.deps for e in trace.events]
    assert all(version is first for version in kept[:4])
    assert kept[4] == {"w": 2} and kept[4] is not first
    clock = VectorClock({"w": 2})
    stamp, entries = trace.stamp(clock)
    assert trace.stamp(VectorClock({"w": 2})) == (stamp, entries)
    assert trace.stamp(VectorClock({"w": 2}))[0] is stamp
    assert stamp is not clock and entries == {"w": 2}


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_signature_equals_the_unshared_one(model):
    _, trace, _ = traced_rep(model, pooled=True)
    signature = coherence_signature(trace)
    assert signature == reference_signature(trace)
    assert repr(signature) == repr(reference_signature(trace))
    entries = [entry for lane in signature.values() for entry in lane]
    assert len({id(entry) for entry in entries}) == len(set(entries))


def coherence_heap(snapshot):
    """Live bytes allocated under ``repro/coherence/`` in ``snapshot``."""
    coherence = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/coherence/*")])
    return sum(stat.size for stat in coherence.statistics("filename"))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_pools_shrink_the_history_heap(model):
    digest, _, snapshot = traced_rep(model, pooled=True)
    unpooled_digest, _, unpooled_snapshot = traced_rep(model, pooled=False)
    assert digest == unpooled_digest
    share = coherence_heap(snapshot) / coherence_heap(unpooled_snapshot)
    assert share < POOLED_SHARE, (
        f"pooled history keeps {share:.2f} of the unpooled one's heap")


def row_bytes(snapshot):
    """Live bytes allocated by the lines of the ``record_*`` and ``event``
    bodies that append to a column: the rows, without the tables they
    point at."""
    lines = set()
    for name, method in vars(TraceRecorder).items():
        if name.startswith("record_") or name == "event":
            source, first = inspect.getsourcelines(method)
            lines.update(first + offset for offset, line in enumerate(source)
                         if ".append(" in line or ".extend(" in line)
    recorder = snapshot.filter_traces(
        [tracemalloc.Filter(True, trace_module.__file__)])
    return sum(stat.size for stat in recorder.statistics("lineno")
               if stat.traceback[0].lineno in lines)


@pytest.mark.parametrize("workload", ["sim_read_heavy", "sim_write_fanout"])
def test_a_recorded_row_costs_at_most_row_bytes(workload):
    _, trace, snapshot = traced_rep(None, pooled=True, workload=workload)
    kinds = [row[0] for row in trace.rows()]
    # Each tree is mostly reads or mostly applies, as its name says.
    bulk = (trace_module.READ if workload == "sim_read_heavy"
            else trace_module.APPLY)
    assert kinds.count(bulk) > 0.8 * len(kinds)
    per_row = row_bytes(snapshot) / len(kinds)
    assert 29 <= per_row <= ROW_BYTES, (
        f"{workload}: {per_row:.1f} B per recorded row")


class FakeChannel:
    """Collects the frames a node would write to the hub."""

    def __init__(self):
        self.frames = []

    def send(self, kind, **body):
        self.frames.append((kind, body))


def record_some(recorder, seqno):
    """One write's worth of events, the way a store and a client record
    them (the apply through the batch stamp)."""
    wid = WriteId("w", seqno)
    recorder.record_write_issue(0.0, "w", wid, "server", deps={"r": seqno})
    _, stamped = recorder.stamp(VectorClock({"w": seqno}))
    recorder.record_apply(1.0, "cache-0", wid, stamped, global_seq=seqno,
                          deps={"r": seqno})
    recorder.record_install(1.5, "cache-0", {"w": seqno})
    recorder.record_read(2.0, "cache-0", "r", stamped,
                         requirement={"w": seqno}, weight=2)
    recorder.record_drop(2.5, "cache-1", wid)
    recorder.record_write_ack(3.0, "w", wid, "server")


def test_a_node_forwards_every_row_and_keeps_none():
    channel = FakeChannel()
    node = TraceRecorder()
    transport = NodeTransport(channel, node)
    reference = TraceRecorder()
    for seqno in range(1, 51):
        record_some(node, seqno)
        record_some(reference, seqno)
        transport.send("cache-0", "server", {"seqno": seqno})
        # Nothing is left behind: no row, no name, no pool entry.
        assert len(node.events) == 0 and list(node.rows()) == []
        assert node.stores() == [] and node.clients() == []
        assert vars(node) == vars(TraceRecorder())
    assert [kind for kind, _ in channel.frames] == ["trace", "data"] * 50
    hub = TraceRecorder()
    for kind, body in channel.frames:
        if kind == "trace":
            # The frame crosses the socket as a protocol-5 pickle.
            for name, args in pickle.loads(pickle.dumps(body["rows"], 5)):
                getattr(hub, name)(*args)
    assert hub.events == reference.events
    assert coherence_signature(hub) == coherence_signature(reference)
    # The hub pools what it records from nodes like anything else.
    applied = [e.applied_vc for e in hub.of_type(ApplyEvent)]
    assert distinct(applied) == (50, 50)
    deps = [e.deps for e in hub.events if getattr(e, "deps", None)]
    assert len(deps) == 100 and distinct(deps) == (50, 50)
    # A send with nothing recorded frames only the datagram.
    transport.send("cache-0", "server", {})
    assert channel.frames[-1][0] == "data" and len(channel.frames) == 101
