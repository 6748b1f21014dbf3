"""The control sub-object.

The control object routes client method calls issued in its address space
to the replication object and fronts the semantics object for it.  The
replication object takes protocol messages from, and sends through, the
communication object directly, and reads the clock itself.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.comm.endpoint import CommunicationObject
from repro.comm.invocation import MarshalledInvocation
from repro.core.interfaces import ReplicationObject, Role, SemanticsObject
from repro.sim.future import Future
from repro.transport.interface import Clock


class ControlObject:
    """Concrete control object wiring the four sub-objects together."""

    def __init__(
        self,
        sim: Clock,
        comm: CommunicationObject,
        replication: ReplicationObject,
        semantics: Optional[SemanticsObject],
        role: Role,
    ) -> None:
        self.sim = sim
        self.comm = comm
        self.replication = replication
        self.semantics = semantics
        self._role = role
        comm.set_handler(replication.handle_message)
        replication.attach(self)
        if semantics is not None:
            # Every applied write and served read calls these: bind them
            # to the semantics object once instead of forwarding per call.
            self.apply_local = semantics.apply
            self.can_apply = semantics.can_apply

    # -- identity and the semantics object -------------------------------------

    @property
    def address(self) -> str:
        """The communication object's network address."""
        return self.comm.address

    @property
    def role(self) -> Role:
        """The store role (or client) this local object plays."""
        return self._role

    def apply_local(self, invocation: MarshalledInvocation) -> Any:
        """Apply ``invocation`` to the semantics object.

        Only reached without one: ``__init__`` binds this name to
        ``semantics.apply`` when there is a semantics object.
        """
        raise RuntimeError(
            f"{self.address}: no semantics object in a {self._role.value} "
            "local object"
        )

    def touched_keys(self, invocation: MarshalledInvocation) -> Sequence[str]:
        """The semantics object's keys for ``invocation``; none without one."""
        if self.semantics is None:
            return ()
        return self.semantics.touched_keys(invocation)

    def missing_keys(self, keys) -> Sequence[str]:
        """The ``keys`` absent here; all of them without a semantics object."""
        if self.semantics is None:
            return tuple(keys)
        return self.semantics.missing_keys(keys)

    def can_apply(self, invocation: MarshalledInvocation) -> bool:
        """Whether this replica can apply ``invocation``.

        Only reached without a semantics object, which holds nothing to
        apply to (see :meth:`apply_local`).
        """
        return False

    def semantics_snapshot(
        self, keys: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        """A full snapshot, or one of ``keys`` only."""
        if self.semantics is None:
            raise RuntimeError(f"{self.address}: no semantics object")
        if keys is None:
            return self.semantics.snapshot()
        return self.semantics.partial_snapshot(keys)

    def semantics_restore(self, state: Dict[str, Any], partial: bool) -> None:
        """Install a full or (``partial``) per-key snapshot."""
        if self.semantics is None:
            raise RuntimeError(f"{self.address}: no semantics object")
        if partial:
            self.semantics.restore_partial(state)
        else:
            self.semantics.restore(state)

    # -- inbound paths --------------------------------------------------------

    def invoke(
        self, invocation: MarshalledInvocation, weight: int = 1
    ) -> Future:
        """Entry point for method calls issued in this address space.

        ``weight`` counts the identical cohort clients this call stands in
        for (1 for an ordinary client; see :mod:`repro.workload.cohort`).
        """
        return self.replication.handle_invocation(invocation, weight=weight)

    def close(self) -> None:
        """Tear down the composition."""
        self.replication.stop()
        self.comm.close()
