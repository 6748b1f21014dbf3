"""Node durability: the delta journal beside the compacted snapshot.

Everything here is in-process and seeded -- no node process, no socket.
Three layers are covered:

- the *engine pair* ``delta()`` / ``apply_delta()``: a hypothesis
  property drives a ``sim`` server + cache through writes, appends,
  deletes, reads, partial and full state transfers, persisting through a
  real :class:`~repro.runtime.journal.Journal` after every simulator
  event, and at every step recovers a fresh engine from the two files
  and demands ``checkpoint()`` and ``snapshot_state()`` equality;
- the *file layer*: torn tails (every byte offset of the last record,
  every flipped byte, a record whose crc holds but whose pickle does
  not load), the epoch rule, the fresh-start truncation and an
  unreadable snapshot;
- the *cost contract*: one write's record is the same size at log length
  0 and 800, and read-only ``call`` frames of a
  :class:`~repro.runtime.node.NodeRuntime` touch neither file.

The last check runs one bare interpreter: the files are pickles, so the
node entry point imports nothing from the sweep layer (``repro.exec``).

The SIGKILL cases against real node processes live in
``tests/test_faults_socket.py``.
"""

import os
import pickle
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coherence.models import CoherenceModel
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    Propagation,
    ReplicationPolicy,
    WriteSet,
)
from repro.runtime.journal import Journal, JournalError
from repro.runtime.node import NodeRuntime
from repro.sim.kernel import Simulator
from repro.web.webobject import WebObject

PAGES = {"a": "<p>a</p>", "b": "<p>b</p>", "c": "<p>c</p>"}

POLICIES = {
    "default": ReplicationPolicy(),
    "partial-invalidate": ReplicationPolicy(
        propagation=Propagation.INVALIDATE,
        access_transfer=AccessTransfer.PARTIAL,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    ),
    "eventual-multi": ReplicationPolicy(
        model=CoherenceModel.EVENTUAL,
        write_set=WriteSet.MULTIPLE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    ),
    "sequential": ReplicationPolicy(
        model=CoherenceModel.SEQUENTIAL,
        write_set=WriteSet.MULTIPLE,
        coherence_transfer=CoherenceTransfer.PARTIAL,
    ),
    "conference-lazy": ReplicationPolicy.conference_example(),
}


def build_site(policy):
    """A server + one cache on a fresh simulator; nothing has run yet."""
    sim = Simulator(seed=11)
    net = Network(sim, latency=ConstantLatency(0.02))
    site = WebObject(sim, net, policy=policy, pages=dict(PAGES),
                     designated_writer="master")
    site.create_server("server")
    site.create_cache("cache")
    return sim, site


def recovered(policy, directory, address):
    """A fresh engine of ``address`` recovered from the files on disk."""
    _, site = build_site(policy)
    engine = site.dso.stores[address].engine
    journal = Journal(os.path.join(directory, address), fresh=False)
    try:
        journal.recover(engine)
    finally:
        journal.close()
    return engine


pages = st.sampled_from(sorted(PAGES) + ["d"])
texts = st.text(alphabet="xyz<>/", min_size=1, max_size=12)
operations = st.one_of(
    st.tuples(st.sampled_from(["write_page", "append_to_page"]),
              st.sampled_from(["master", "other"]), pages, texts),
    st.tuples(st.just("delete_page"), st.just("master"), pages),
    st.tuples(st.just("read_page"), st.sampled_from(["reader", "other"]),
              pages),
    st.tuples(st.just("demand_partial"), pages),
    st.tuples(st.just("demand_full")),
)
#: Simulator events fired after an operation: one (the rest stays in
#: flight), a few hops, or enough to drain it and fire the lazy flush.
budgets = st.sampled_from([1, 6, 200])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(policy_name=st.sampled_from(sorted(POLICIES)),
       script=st.lists(st.tuples(operations, budgets), min_size=1,
                       max_size=14))
def test_snapshot_plus_journal_recovers_the_engine(policy_name, script):
    policy = POLICIES[policy_name]
    sim, site = build_site(policy)
    stores = site.dso.stores
    browsers = {
        "master": site.bind_browser("m", "master", read_store="server"),
        "other": site.bind_browser("o", "other", read_store="cache",
                                   write_store="cache"),
        "reader": site.bind_browser("r", "reader", read_store="cache"),
    }
    with tempfile.TemporaryDirectory() as directory:
        journals = {
            address: Journal(os.path.join(directory, address), fresh=True)
            for address in stores
        }
        try:
            for address, journal in journals.items():
                journal.snapshot(stores[address].engine)

            def persist_all():
                for address, journal in journals.items():
                    journal.persist(stores[address].engine)

            for operation, budget in script:
                kind = operation[0]
                if kind == "demand_partial":
                    stores["cache"].engine.reads.demand(
                        keys=[operation[1]], want_full=False)
                elif kind == "demand_full":
                    stores["cache"].engine.reads.demand(want_full=True)
                elif kind == "delete_page":
                    # Deleting an absent page raises inside the primary's
                    # apply path, so settle first and delete what exists.
                    while sim.live_pending and sim.step():
                        persist_all()
                    if operation[2] in stores["server"].state():
                        browsers["master"].delete_page(operation[2])
                else:
                    getattr(browsers[operation[1]], kind)(*operation[2:])
                persist_all()
                for _ in range(budget):
                    if not sim.step():
                        break
                    persist_all()  # the node persists after every frame
                for address, store in stores.items():
                    clone = recovered(policy, directory, address)
                    assert clone.checkpoint() == store.engine.checkpoint()
                    assert clone.snapshot_state() == store.state()
        finally:
            for journal in journals.values():
                journal.close()


# -- the file layer ------------------------------------------------------------


class StubEngine:
    """The three calls :meth:`Journal.snapshot` makes of an engine."""

    def __init__(self, payload):
        self.payload = payload

    def delta(self):
        return None

    def checkpoint(self):
        return {"payload": self.payload}

    def snapshot_state(self):
        return {}


@pytest.fixture()
def three_records(tmp_path):
    """A snapshot plus three journal records; yields (path, record ends)."""
    path = str(tmp_path / "node.ckpt")
    journal = Journal(path, fresh=True)
    journal.snapshot(StubEngine("x" * 64))
    ends = []
    for index in range(3):
        journal.append({"n": index, "body": "r" * (10 + index)})
        ends.append(journal.journal_bytes)
    journal.close()
    return path, ends


def reload(path):
    """Load ``path`` with a new Journal; (deltas, journal size after)."""
    journal = Journal(path, fresh=False)
    try:
        _, deltas = journal.load()
        assert journal.journal_bytes == os.path.getsize(path + ".journal")
        return [delta["n"] for delta in deltas], journal.journal_bytes
    finally:
        journal.close()


def test_intact_journal_replays_every_record(three_records):
    path, ends = three_records
    assert reload(path) == ([0, 1, 2], ends[2])


def test_tail_torn_at_every_offset_is_dropped_and_cut(three_records):
    path, ends = three_records
    whole = Path(path + ".journal").read_bytes()
    for cut in range(ends[1], ends[2]):
        Path(path + ".journal").write_bytes(whole[:cut])
        assert reload(path) == ([0, 1], ends[1]), cut


def test_flipped_byte_drops_that_record_and_everything_after(three_records):
    path, ends = three_records
    whole = Path(path + ".journal").read_bytes()
    for position in range(ends[0], ends[1]):  # anywhere in record 1
        damaged = bytearray(whole)
        damaged[position] ^= 0x40
        Path(path + ".journal").write_bytes(damaged)
        assert reload(path) == ([0], ends[0]), position


#: Bytes that do not unpickle, by how ``pickle.loads`` fails on them.
NOT_PICKLES = {
    "garbage": b"not a pickle",  # UnpicklingError
    "empty": b"",  # EOFError
    "truncated": pickle.dumps({"epoch": 1, "engine": {}}, 5)[:-3],
    "unknown-name": b"cos\nno_such_name\n.",  # AttributeError
}


def framed(payload):
    """One journal record around ``payload``: length, crc32, payload."""
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


@pytest.mark.parametrize("payload", [
    *NOT_PICKLES.values(),
    pickle.dumps(5, 5),  # unpickles, but is no (epoch, delta) pair
], ids=[*NOT_PICKLES, "not-a-pair"])
def test_record_with_good_crc_that_does_not_unpickle_is_cut(three_records,
                                                            payload):
    path, ends = three_records
    after = framed(pickle.dumps((1, {"n": 9}), 5))  # never replayed
    with open(path + ".journal", "ab") as fh:
        fh.write(framed(payload) + after)
    assert reload(path) == ([0, 1, 2], ends[2])


def test_records_of_an_older_epoch_are_skipped(three_records):
    path, _ = three_records
    stale = Path(path + ".journal").read_bytes()
    journal = Journal(path, fresh=False)
    journal.load()
    journal.snapshot(StubEngine("compacted"))
    journal.close()
    # A kill between the snapshot's os.replace and the journal's
    # truncation leaves the old epoch's records behind.
    Path(path + ".journal").write_bytes(stale)
    journal = Journal(path, fresh=False)
    snapshot, deltas = journal.load()
    assert snapshot["engine"] == {"payload": "compacted"}
    assert snapshot["epoch"] == 2 and deltas == []
    journal.append({"n": 7})
    journal.close()
    assert reload(path)[0] == [7]


def test_fresh_start_empties_a_stale_journal_first(three_records):
    path, _ = three_records
    journal = Journal(path, fresh=True)
    assert journal.journal_bytes == 0
    assert os.path.getsize(path + ".journal") == 0
    journal.snapshot(StubEngine("new run"))
    journal.close()
    assert reload(path) == ([], 0)


def test_a_new_snapshot_is_due_once_the_journal_matches_it(tmp_path):
    sim, site = build_site(POLICIES["default"])
    engine = site.dso.stores["server"].engine
    master = site.bind_browser("m", "master", read_store="server")
    journal = Journal(str(tmp_path / "server"), fresh=True)
    journal.snapshot(engine)
    epochs = set()
    for revision in range(60):
        master.write_page("a", f"<p>{revision}</p>")
        sim.run_until_idle()
        journal.persist(engine)
        assert journal.journal_bytes < 2 * journal.snapshot_bytes + 1024
        epochs.add(journal.epoch)
    journal.close()
    # Geometric: the snapshot was rewritten a few times, not 60.
    assert 2 <= len(epochs) <= 12


#: Snapshot files that cannot be read back, by what is wrong with them.
DAMAGED_SNAPSHOTS = {
    **NOT_PICKLES,
    "non-dict": pickle.dumps([1, {}, {}], 5),
    "no-epoch": pickle.dumps({"engine": {}, "state": {}}, 5),
}


@pytest.mark.parametrize("damage", ["missing", *DAMAGED_SNAPSHOTS])
def test_unreadable_snapshot_is_one_clear_error(tmp_path, damage):
    path = str(tmp_path / "node.ckpt")
    if damage != "missing":
        Path(path).write_bytes(DAMAGED_SNAPSHOTS[damage])
    journal = Journal(path, fresh=False)
    try:
        with pytest.raises(JournalError, match="unreadable snapshot"):
            journal.load()
    finally:
        journal.close()


# -- the cost contract ---------------------------------------------------------


def test_one_writes_record_does_not_grow_with_the_log():
    sim, site = build_site(POLICIES["default"])
    engine = site.dso.stores["server"].engine
    master = site.bind_browser("m", "master", read_store="server")
    engine.delta()  # start from the state as built

    def record_for_one_write():
        master.write_page("a", "<p>" + "w" * 1024 + "</p>")
        sim.run_until_idle()
        delta = engine.delta()
        assert len(delta["log"]) == 1 and list(delta["state"]) == ["a"]
        return len(pickle.dumps((0, delta), 5))

    at_log_0 = record_for_one_write()
    for _ in range(799):
        master.write_page("b", "<p>filler</p>")
    sim.run_until_idle()
    engine.delta()
    assert len(engine.log) == 800
    at_log_800 = record_for_one_write()
    assert at_log_800 <= 2 * at_log_0
    assert at_log_800 < len(pickle.dumps(engine.checkpoint(), 5)) / 20
    # Reading introspection state changes nothing, so there is no delta.
    engine.version(), engine.snapshot_state(), engine.checkpoint()
    assert engine.delta() is None


class RecordingChannel:
    """Stands in for the node's frame channel: keeps what was sent."""

    def __init__(self):
        self.sent = []

    def send(self, kind, **body):
        self.sent.append((kind, body))

    def close(self):
        pass


def make_runtime(directory, restore=False):
    spec = {
        "address": "server", "role": "permanent", "parent": None,
        "policy": ReplicationPolicy(), "allowed_writer": "master",
        "seed": 3, "semantics_state": None,
        "checkpoint_path": os.path.join(directory, "server.ckpt"),
    }
    return NodeRuntime("server", RecordingChannel(), spec, restore=restore)


def file_stamps(directory):
    return {
        name: (os.stat(os.path.join(directory, name)).st_size,
               os.stat(os.path.join(directory, name)).st_mtime_ns)
        for name in sorted(os.listdir(directory))
    }


def test_read_only_call_frames_touch_neither_file(tmp_path):
    runtime = make_runtime(str(tmp_path))
    try:
        runtime.journal.snapshot(runtime.engine)
        runtime._handle_call({"call_id": 1, "op": "subscribe_child",
                              "kwargs": {"address": "cache-0"}})
        assert runtime.journal.journal_bytes > 0  # a mutating call appends
        before = file_stamps(str(tmp_path))
        for call_id, op in enumerate(
                ["ping", "version", "counters", "snapshot_state", "nope"] * 40):
            runtime._handle_call({"call_id": call_id, "op": op})
        assert file_stamps(str(tmp_path)) == before
        replies = [body for kind, body in runtime.channel.sent
                   if kind == "reply"]
        assert len(replies) == 201
        assert sum("error" in body for body in replies) == 40
    finally:
        runtime.journal.close()


def test_call_handler_lets_interrupts_through(tmp_path):
    runtime = make_runtime(str(tmp_path))
    try:
        def interrupted(address):
            raise KeyboardInterrupt

        runtime.engine.subscribe_child = interrupted
        with pytest.raises(KeyboardInterrupt):
            runtime._handle_call({"call_id": 1, "op": "subscribe_child",
                                  "kwargs": {"address": "x"}})
        assert runtime.channel.sent == []
    finally:
        runtime.journal.close()


def test_fresh_runtime_in_a_reused_directory_ignores_the_old_run(tmp_path):
    first = make_runtime(str(tmp_path))
    first.journal.snapshot(first.engine)
    first._handle_call({"call_id": 1, "op": "subscribe_child",
                        "kwargs": {"address": "old-child"}})
    first.journal.close()
    assert os.path.getsize(first.journal.path + ".journal") > 0

    restored = make_runtime(str(tmp_path), restore=True)
    restored.journal.close()
    assert restored.engine.children == ["old-child"]

    fresh = make_runtime(str(tmp_path))  # restore=False: a new run
    try:
        assert os.path.getsize(fresh.journal.path + ".journal") == 0
        assert fresh.engine.children == []
        fresh.journal.snapshot(fresh.engine)
        blob = Path(fresh.journal.path).read_bytes()
        assert pickle.loads(blob)["engine"]["children"] == []
    finally:
        fresh.journal.close()


def test_torn_tail_is_never_half_applied_to_an_engine(tmp_path):
    """End to end on real deltas: cut the last record, recover the rest."""
    sim, site = build_site(POLICIES["default"])
    engine = site.dso.stores["server"].engine
    master = site.bind_browser("m", "master", read_store="server")
    directory = str(tmp_path)
    journal = Journal(os.path.join(directory, "server"), fresh=True)
    master.write_page("b", "<p>" + "big " * 1024 + "</p>")
    sim.run_until_idle()
    journal.snapshot(engine)  # large: the two records below stay deltas
    master.write_page("a", "<p>first</p>")
    sim.run_until_idle()
    journal.persist(engine)
    expected = (engine.checkpoint(), engine.snapshot_state())
    kept = journal.journal_bytes
    master.write_page("a", "<p>second</p>")
    sim.run_until_idle()
    journal.persist(engine)
    total = journal.journal_bytes
    journal.close()
    assert total > kept > 0
    for cut in (kept + 1, kept + 8, total - 1):
        scratch = os.path.join(directory, f"cut-{cut}")
        os.mkdir(scratch)
        for name in ("server", "server.journal"):
            shutil.copy(os.path.join(directory, name), scratch)
        os.truncate(os.path.join(scratch, "server.journal"), cut)
        clone = recovered(POLICIES["default"], scratch, "server")
        assert (clone.checkpoint(), clone.snapshot_state()) == expected
        assert os.path.getsize(
            os.path.join(scratch, "server.journal")) == kept


def test_a_node_process_loads_no_sweep_module():
    """The node's spec, snapshot and records are pickles: importing the
    node entry point must not pull in the sweep layer (``repro.exec``)."""
    code = ("import sys, repro.runtime.node; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.exec' or m.startswith('repro.exec.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
