"""Standardized interfaces of the local-object composition.

The paper's key structural claim is that replication and communication
objects have *standardized* interfaces and are unaware of the semantics
object's methods and state -- they see only marshalled invocations.  These
abstract classes are those interfaces; every concrete coherence protocol in
:mod:`repro.replication` implements :class:`ReplicationObject` without ever
importing a semantics class: it reaches the semantics object only through
the control object.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Sequence, Tuple

from repro.comm.invocation import MarshalledInvocation
from repro.comm.message import Message
from repro.sim.future import Future

if TYPE_CHECKING:
    from repro.core.control import ControlObject


class Role(enum.Enum):
    """The role an address space plays for one distributed object.

    The three store roles are the three store classes of Section 3.1
    (Fig. 2); ``CLIENT`` is a pure client address space holding no replica.
    """

    CLIENT = "client"
    PERMANENT = "permanent"
    OBJECT_INITIATED = "object-initiated"
    CLIENT_INITIATED = "client-initiated"

    @property
    def is_store(self) -> bool:
        """Whether this role keeps a replica of the object state."""
        return self is not Role.CLIENT


#: Store roles ordered from the root of the Fig. 2 hierarchy downward.
STORE_LAYERS: Tuple[Role, ...] = (
    Role.PERMANENT,
    Role.OBJECT_INITIATED,
    Role.CLIENT_INITIATED,
)


class SemanticsObject:
    """State + methods of the distributed object (developer-provided).

    The replication machinery interacts with semantics objects only through
    this interface: applying marshalled invocations and transferring state
    snapshots (full or partial, per the access/coherence transfer-type
    parameters of Table 1).
    """

    def apply(self, invocation: MarshalledInvocation) -> Any:
        """Execute a marshalled invocation against local state."""
        raise NotImplementedError

    def touched_keys(self, invocation: MarshalledInvocation) -> Sequence[str]:
        """State keys an invocation reads or writes (for partial transfer)."""
        raise NotImplementedError

    def missing_keys(self, keys: Sequence[str]) -> Sequence[str]:
        """Subset of ``keys`` not present in local state (cache misses)."""
        raise NotImplementedError

    def can_apply(self, invocation: MarshalledInvocation) -> bool:
        """Whether the invocation is applicable to *this replica's* state.

        Self-contained writes (replacing a page) always apply; delta writes
        (appending to a page) need the base content present.  A partial
        replica receiving a delta for a page it never cached must skip the
        write and mark the page uncached instead of fabricating content.
        """
        return True

    def snapshot(self) -> Dict[str, Any]:
        """Full-state snapshot (coherence/access transfer type ``full``)."""
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace local state with a full snapshot."""
        raise NotImplementedError

    def partial_snapshot(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Snapshot restricted to ``keys`` (transfer type ``partial``)."""
        raise NotImplementedError

    def restore_partial(self, state: Dict[str, Any]) -> None:
        """Merge a partial snapshot into local state."""
        raise NotImplementedError

    def fresh(self) -> "SemanticsObject":
        """A new, empty instance of the same semantics class.

        Used when a replica is installed in a new store address space.
        """
        raise NotImplementedError


class ReplicationObject:
    """The pluggable coherence/replication protocol of a local object.

    Exactly one replication object exists per local object.  The control
    object calls :meth:`handle_invocation` for client method calls arriving
    in this address space; the communication object calls
    :meth:`handle_message` for protocol traffic from peers.  The
    replication object sends through ``comm``, arms timers on ``clock``
    and reaches the semantics object through ``control``.  Only a client's
    replication object takes method calls: a store's one input is a
    protocol message.
    """

    def attach(self, control: ControlObject) -> None:
        """Wire the control object and bind its ``comm``, ``clock`` and
        ``address``; called once during composition."""
        self.control = control
        self.comm = control.comm
        self.clock = control.sim
        self.address = control.comm.address

    def start(self) -> None:
        """Begin timers/subscriptions; called after the composition is wired."""

    def stop(self) -> None:
        """Cancel timers; called when the local object is destroyed."""

    def handle_invocation(
        self, invocation: MarshalledInvocation, weight: int = 1
    ) -> Future:
        """Serve a client method call issued in this address space.

        ``weight`` counts the identical cohort clients the call stands in
        for (weighted trace/metric accounting; 1 for an ordinary client).
        Resolves with the invocation result.
        """
        raise NotImplementedError(
            f"{type(self).__name__} takes protocol messages only: bind a "
            "client (DistributedSharedObject.bind) and invoke through its stub"
        )

    def handle_message(self, src: str, message: Message) -> None:
        """Process protocol traffic from a peer replication object."""
        raise NotImplementedError
