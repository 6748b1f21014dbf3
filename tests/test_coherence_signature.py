"""Trace events and ``coherence_signature``.

The events are plain slotted values that cross a process boundary (a
``live-socket`` node sends each one to the hub in a ``trace`` frame),
and the signature drops the global interleaving of its lanes.
"""

import pickle

from repro.coherence.trace import (
    TraceEvent,
    TraceRecorder,
    coherence_signature,
)
from repro.core.ids import WriteId
from repro.exec.codec import encode_result


def applied_at(stores):
    """One issued write, then applied at each of ``stores`` in turn."""
    trace = TraceRecorder()
    wid = WriteId("writer", 1)
    trace.record_write_issue(0.0, "writer", wid, "master")
    for store in stores:
        trace.record_apply(1.0, store, wid, {"writer": 1})
    return trace


def test_lanes_ignore_the_global_interleaving():
    one = coherence_signature(applied_at(["cache-1", "cache-0"]))
    other = coherence_signature(applied_at(["cache-0", "cache-1"]))
    assert list(one) == list(other) == sorted(one)
    assert encode_result(one) == encode_result(other)


def every_event_kind():
    """One recorded event of each kind, with every field set."""
    trace = TraceRecorder()
    wid = WriteId("writer", 2)
    trace.record_apply(1.0, "cache-0", wid, {"writer": 2}, global_seq=4,
                       deps={"other": 1})
    trace.record_install(1.5, "cache-1", {"writer": 2})
    trace.record_drop(2.0, "cache-0", WriteId("writer", 1))
    trace.record_write_issue(0.5, "writer", wid, "server", deps={"o": 1})
    trace.record_write_ack(0.75, "writer", wid, "server")
    trace.record_read(3.0, "cache-0", "reader", {"writer": 2},
                      requirement={"writer": 1}, weight=3)
    return trace.events


def test_every_event_kind_is_covered():
    kinds = {type(event) for event in every_event_kind()}
    assert kinds == set(TraceEvent.__subclasses__())


def test_slotted_events_cross_the_socket_unchanged():
    for event in every_event_kind():
        # An event built from a row stays slotted and survives the
        # protocol-5 pickle that frames and cached sweep results use.
        assert pickle.loads(pickle.dumps(event, 5)) == event
        assert not hasattr(event, "__dict__")
