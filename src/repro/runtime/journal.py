"""A store node's two durability files: a snapshot and a delta journal.

``<path>`` holds the last *snapshot*, one dict ``{"epoch", "engine",
"state"}`` pickled with protocol 5, only ever replaced whole (``tmp`` +
``os.replace``).  ``<path>.journal`` holds the *deltas* since: each record
is an 8-byte header (payload length, ``zlib.crc32`` of the payload)
and a pickled ``(epoch, delta)``.  Recovery replays, in order, the
records of the snapshot's epoch and cuts the file at the first record
that is short, fails its crc or does not unpickle -- a torn tail is
dropped, never half-applied.  Each file is read back only by the node
that wrote it, in its hub's run directory: the trust boundary is the
wire's (frames are pickles too).  The contract, the epoch rule and the
compaction trigger are spelled out in ``ARCHITECTURE.md`` ("Node
durability").  Nothing is ``fsync``\\ ed: the pair survives SIGKILL of the
process, not power loss of the host.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, List, Tuple

#: Record header: payload length, crc32 of the payload.
_HEADER = struct.Struct(">II")


class JournalError(RuntimeError):
    """The snapshot could not be read back."""


class Journal:
    """Snapshot at ``path``, append-only delta records beside it.

    ``fresh=True`` empties a journal left by an earlier run *before*
    anything is written, so its records can never be replayed onto the
    new run's snapshot; the caller then writes the first snapshot.
    """

    def __init__(self, path: str, fresh: bool) -> None:
        self.path = path
        self.epoch = 0
        self.snapshot_bytes = 0
        flags = os.O_RDWR | os.O_CREAT | os.O_APPEND
        self._fd = os.open(
            path + ".journal", flags | (os.O_TRUNC if fresh else 0), 0o644
        )
        self.journal_bytes = os.fstat(self._fd).st_size

    # -- the engine-facing pair ------------------------------------------------

    def persist(self, engine: Any) -> None:
        """Make what ``engine`` changed durable; no I/O if nothing did."""
        delta = engine.delta()
        if delta is None:
            return
        if "reinstalled" in delta or self.journal_bytes >= self.snapshot_bytes:
            self.snapshot(engine)
        else:
            self.append(delta)

    def recover(self, engine: Any) -> None:
        """Bring a fresh ``engine`` (and its document) back to the last
        persisted state: snapshot first, then the journal in order."""
        snapshot, deltas = self.load()
        engine.restore(snapshot["engine"])
        engine.control.semantics_restore(snapshot["state"], partial=False)
        for delta in deltas:
            engine.apply_delta(delta)

    # -- the file layer --------------------------------------------------------

    def snapshot(self, engine: Any) -> None:
        """Write ``engine``'s whole state as the next epoch's snapshot,
        then empty the journal.

        The replace comes first: killed before it, the old pair is
        intact; killed after it, the journal's records carry the old
        epoch and are skipped.
        """
        engine.delta()  # covered by this snapshot: later deltas start here
        blob = pickle.dumps({
            "epoch": self.epoch + 1,
            "engine": engine.checkpoint(),
            "state": engine.snapshot_state(),
        }, 5)
        with open(self.path + ".tmp", "wb") as fh:
            fh.write(blob)
        os.replace(self.path + ".tmp", self.path)
        self.epoch += 1
        self.snapshot_bytes = len(blob)
        os.ftruncate(self._fd, 0)
        self.journal_bytes = 0

    def append(self, delta: Any) -> None:
        """Append one delta as a length+crc framed record."""
        payload = pickle.dumps((self.epoch, delta), 5)
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        view = memoryview(record)
        while view:
            view = view[os.write(self._fd, view):]
        self.journal_bytes += len(record)

    def load(self) -> Tuple[Dict[str, Any], List[Any]]:
        """The snapshot dict and the deltas to replay onto it, in order."""
        try:
            with open(self.path, "rb") as fh:
                blob = fh.read()
            snapshot = pickle.loads(blob)
            self.epoch = int(snapshot["epoch"])
        except Exception as exc:  # missing, not a pickle, no "epoch", ...
            raise JournalError(
                f"unreadable snapshot {self.path}: {exc!r}"
            ) from exc
        self.snapshot_bytes = len(blob)
        data = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        deltas: List[Any] = []
        good = 0
        while good + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, good)
            end = good + _HEADER.size + length
            payload = data[good + _HEADER.size:end]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            try:
                epoch, delta = pickle.loads(payload)
            except Exception:  # any unpickling failure: the cut is here
                break
            if epoch == self.epoch:
                deltas.append(delta)
            good = end
        os.ftruncate(self._fd, good)
        self.journal_bytes = good
        return snapshot, deltas

    def close(self) -> None:
        """Release the journal's file descriptor."""
        os.close(self._fd)
