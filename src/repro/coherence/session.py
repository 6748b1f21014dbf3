"""Client sessions and session-guarantee bookkeeping.

A :class:`SessionState` lives in the client-side replication object and
implements the paper's client-based coherence models (Section 3.2.2).  It
tracks:

- the client's own write position (``last_write`` WiD and the store where it
  was performed -- the exact ``dependency = (WiD, store_id)`` the paper's
  prototype transmits with read requests);
- the version vector covered by the client's reads.

From these it derives, per request, the dependency vector a store must have
applied before serving (reads) and the dependency vector a write carries
(writes-follow-reads).  Unlike Bayou, which only *checks* guarantees, the
stores here *enforce* them via the outdate-reaction parameter.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.coherence.models import SessionGuarantee
from repro.coherence.vector_clock import VectorClock
from repro.comm.message import estimate_size
from repro.core.ids import WriteId


@dataclasses.dataclass
class SessionState:
    """Per-client coherence context."""

    client_id: str
    guarantees: FrozenSet[SessionGuarantee] = frozenset()
    #: WiD of the client's most recent write (RYW dependency).
    last_write: Optional[WriteId] = None
    #: Store at which that write was performed (paper's dependency pair).
    last_write_store: Optional[str] = None
    #: All of this client's own writes (monotonic-writes dependency).
    write_vc: VectorClock = dataclasses.field(default_factory=VectorClock)
    #: Writes covered by this client's reads (MR / WFR dependency).
    read_vc: VectorClock = dataclasses.field(default_factory=VectorClock)
    #: Next sequence number for this client's writes.
    next_seqno: int = 1

    def __post_init__(self) -> None:
        # Deliberately not a dataclass field: the cached wire form (dict
        # plus estimated size) is derived state, rebuilt lazily whenever
        # an observation actually changes what :meth:`to_wire` reports.
        self._wire_cache: Optional[Tuple[Dict[str, Any], int]] = None

    # -- write path ------------------------------------------------------------

    def mint_wid(self) -> WriteId:
        """Allocate the WiD for the client's next write."""
        wid = WriteId(self.client_id, self.next_seqno)
        self.next_seqno += 1
        return wid

    def write_deps(self) -> Optional[VectorClock]:
        """Dependency vector to attach to an outgoing write.

        Under writes-follow-reads the write must follow everything the
        client has read; the client's own previous writes are always
        included so the dependency vector alone reproduces client-PRAM.
        """
        if SessionGuarantee.WRITES_FOLLOW_READS not in self.guarantees:
            return None
        deps = self.read_vc.copy()
        deps.merge(self.write_vc)
        return deps

    def observe_write(self, wid: WriteId, store: str) -> None:
        """Record a completed write (called when the store acknowledges)."""
        self.last_write = wid
        self.last_write_store = store
        self.write_vc.record(wid)
        self._wire_cache = None

    # -- read path ------------------------------------------------------------

    def read_requirement(self) -> VectorClock:
        """Writes a store must have applied before serving this read.

        Read-your-writes contributes the client's own writes; monotonic
        reads contributes everything previous reads observed.
        """
        requirement = VectorClock()
        if SessionGuarantee.READ_YOUR_WRITES in self.guarantees:
            requirement.merge(self.write_vc)
        if SessionGuarantee.MONOTONIC_READS in self.guarantees:
            requirement.merge(self.read_vc)
        return requirement

    def observe_read(self, store_version: VectorClock | Dict[str, int]) -> None:
        """Record the version vector (or reply dict) the store reported.

        The wire form shows ``read_vc`` only through the monotonic-reads
        part of :meth:`read_requirement`, so only an MR session rebuilds
        it when the merge advances ``read_vc``.
        """
        if (self.read_vc.merge(store_version)
                and SessionGuarantee.MONOTONIC_READS in self.guarantees):
            self._wire_cache = None

    # -- wire form ------------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Context dict shipped with read/write requests to stores.

        The dict is cached between observations that change it (most
        reads observe nothing new) and shared by reference across
        requests; receivers treat request bodies as frozen, so the shared
        form is never mutated.
        """
        return self.wire_sized()[0]

    def wire_sized(self) -> Tuple[Dict[str, Any], int]:
        """The wire form together with its estimated payload size."""
        cached = self._wire_cache
        if cached is None:
            wire = {
                "client_id": self.client_id,
                "requirement": self.read_requirement().as_dict(),
                "last_write": str(self.last_write) if self.last_write else None,
                "last_write_store": self.last_write_store,
                "guarantees": sorted(g.value for g in self.guarantees),
            }
            cached = self._wire_cache = (wire, estimate_size(wire))
        return cached
