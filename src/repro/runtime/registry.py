"""Naming and heartbeat-based liveness for a hub's peers.

Every :class:`~repro.runtime.server.FrameServer` embeds one
:class:`Registry` (an in-process registry daemon in the
service-discovery sense), its one name -> connection map: a peer
announces itself once with a ``hello`` frame (:meth:`Registry.register`),
then keeps itself alive with periodic ``heartbeat`` frames
(:meth:`Registry.beat`).  One that misses beats for longer than the TTL
reads dead (:meth:`Registry.alive`) and the server drops its connection
-- how a hub notices a hung process that no socket EOF will report.

Time is injected as plain ``float`` seconds on every mutating call so
tests can drive expiry deterministically without sleeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass
class NodeEntry:
    """One registered node: identity plus liveness bookkeeping."""

    name: str
    pid: int
    conn: Any = None
    last_beat: float = 0.0


class Registry:
    """Thread-safe name -> :class:`NodeEntry` map with TTL liveness.

    ``ttl`` is the beat-silence budget: a node whose ``last_beat`` is
    older than ``now - ttl`` reports dead via :meth:`alive`.
    """

    def __init__(self, ttl: float = 1.0) -> None:
        self.ttl = ttl
        self._entries: Dict[str, NodeEntry] = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        pid: int,
        conn: Any = None,
        now: float = 0.0,
    ) -> NodeEntry:
        """Insert (or replace, e.g. after a restart) the entry for ``name``."""
        entry = NodeEntry(
            name=name,
            pid=pid,
            conn=conn,
            last_beat=now,
        )
        with self._lock:
            self._entries[name] = entry
        return entry

    def deregister(self, name: str) -> Optional[NodeEntry]:
        """Drop ``name``; returns the removed entry, if any."""
        with self._lock:
            return self._entries.pop(name, None)

    def lookup(self, name: str) -> Optional[NodeEntry]:
        """Resolve ``name`` without touching liveness."""
        with self._lock:
            return self._entries.get(name)

    def beat(self, name: str, now: float) -> bool:
        """Record a heartbeat; ``False`` if the node is not registered."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return False
            entry.last_beat = now
            return True

    def alive(self, name: str, now: float) -> bool:
        """Is ``name`` registered with a beat newer than ``now - ttl``?"""
        with self._lock:
            entry = self._entries.get(name)
            return entry is not None and now - entry.last_beat <= self.ttl

    def names(self) -> List[str]:
        """Currently registered names, sorted for stable output."""
        with self._lock:
            return sorted(self._entries)
