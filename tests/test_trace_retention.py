"""What a run's coherence history keeps, and what a node keeps of it.

The recorder hash-conses the version dicts its events hold, and
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
  that run's, measured in the same interpreter.

A ``live-socket`` node's recorder forwards each event to the hub and
keeps neither the event nor a pool entry.
"""

import dataclasses
import functools
import tracemalloc
from typing import Dict, List

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.workloads import QUICK, sim_rep
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
from repro.runtime.node import ForwardingTraceRecorder

#: Ceiling on pooled / unpooled live ``repro/coherence/`` heap at the end
#: of a run.  On Python 3.11 it measures 0.52 (PRAM) and 0.37 (causal);
#: a history without pools (the node recorder's, or the one before
#: hash-consing) reads 1.0.
POOLED_SHARE = 0.7

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


@functools.lru_cache(maxsize=None)
def traced_rep(model, pooled):
    """The quick ``sim_write_fanout`` rep at seed 7 under ``model``.

    Returns its digest, recorder and a ``tracemalloc`` snapshot taken
    where ``sim_digest`` starts, before the signature is built.  An
    unpooled run records through the node recorder's ``stamp`` and
    ``_intern``, which copy or keep every version as it comes.
    """
    real_digest, real_policy = workloads.sim_digest, workloads.policy_for
    seen = {}

    def spy(deployment, traffic):
        seen["snapshot"] = tracemalloc.take_snapshot()
        seen["trace"] = deployment.site.trace
        return real_digest(deployment, traffic)

    def policy_for(strategy):
        return dataclasses.replace(real_policy(strategy), model=model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "sim_digest", spy)
        patch.setattr(workloads, "policy_for", policy_for)
        if not pooled:
            for name in ("stamp", "_intern"):
                patch.setattr(TraceRecorder, name,
                              getattr(ForwardingTraceRecorder, name))
        tracemalloc.start()
        try:
            rep = sim_rep(QUICK["sim_write_fanout"], seed=7,
                          full_checks=True)
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


class FakeChannel:
    """Collects the frames a node would write to the hub."""

    def __init__(self):
        self.frames = []

    def send(self, kind, **body):
        self.frames.append((kind, body))


def test_a_node_recorder_forwards_every_event_and_keeps_none():
    channel = FakeChannel()
    recorder = ForwardingTraceRecorder(channel)
    for seqno in range(1, 51):
        wid = WriteId("w", seqno)
        recorder.record_write_issue(0.0, "w", wid, "server",
                                    deps={"r": seqno})
        recorder.record_apply(1.0, "cache-0", wid, {"w": seqno},
                              deps={"r": seqno})
        recorder.record_install(1.5, "cache-0", {"w": seqno})
        recorder.record_read(2.0, "cache-0", "r", {"w": seqno})
    assert len(channel.frames) == 200
    assert {kind for kind, _ in channel.frames} == {"trace"}
    events = [body["event"] for _, body in channel.frames]
    assert [type(e) for e in events[:4]] == [
        WriteIssueEvent, ApplyEvent, InstallEvent, ReadEvent]
    assert events[-3].applied_vc == {"w": 50}
    assert len(recorder.events) == 0
    assert recorder.clients() == [] and recorder.stores() == []
    assert not recorder.versions and not recorder.stamps
    clock = VectorClock({"w": 1})
    stamp, entries = recorder.stamp(clock)
    assert stamp is not clock and entries == {"w": 1}
    assert recorder.stamp(clock)[0] is not stamp
    assert not recorder.stamps
