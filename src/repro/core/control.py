"""The control sub-object.

The control object is the hub of a local object: incoming client method
calls and incoming protocol messages both land here and are routed to the
replication object, which in turn reaches the semantics object back through
the control object's :class:`~repro.core.interfaces.ControlInterface`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.comm.endpoint import CommunicationObject
from repro.comm.invocation import MarshalledInvocation
from repro.comm.message import Message
from repro.core.interfaces import (
    ControlInterface,
    ReplicationObject,
    Role,
    SemanticsObject,
)
from repro.sim.future import Future
from repro.transport.interface import Clock


class ControlObject(ControlInterface):
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

    # -- ControlInterface ---------------------------------------------------

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

    def send(self, dst: str, message: Message) -> None:
        """Send ``message`` one way to ``dst``."""
        self.comm.send(dst, message)

    def multicast(self, dsts: Sequence[str], message: Message) -> None:
        """Send one ``message`` to every address in ``dsts``."""
        self.comm.multicast(dsts, message)

    def request(
        self,
        dst: str,
        message: Message,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> Future:
        """Send a request to ``dst``; the future resolves with its reply."""
        return self.comm.request(dst, message, timeout=timeout, retries=retries)

    def reply(self, dst: str, response: Message) -> None:
        """Answer a request from ``dst`` with ``response``."""
        self.comm.reply(dst, response)

    def schedule(self, delay: float, fn, *args, daemon: bool = False) -> Any:
        """Run ``fn(*args)`` after ``delay`` on the local clock."""
        return self.sim.schedule(delay, fn, *args, daemon=daemon)

    def now(self) -> float:
        """The local clock's current time."""
        return self.sim.now

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
