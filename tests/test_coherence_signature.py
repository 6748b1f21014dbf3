"""``coherence_signature`` drops the global interleaving of its lanes."""

from repro.coherence.trace import TraceRecorder, coherence_signature
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
