"""Distributed-shared-object core (S4).

Implements the Globe object model of Section 2 of the paper: a *distributed
shared object* (DSO) is physically distributed over many address spaces;
each participating address space hosts a *local object* composed of four
sub-objects behind standardized interfaces:

- **semantics object** (:class:`SemanticsObject`) -- document state and
  methods, written by the object developer;
- **communication object** (:class:`repro.comm.CommunicationObject`) --
  system-provided messaging;
- **replication object** (:class:`ReplicationObject`) -- the pluggable
  coherence protocol (implementations live in :mod:`repro.replication`);
  it sends through the communication object and reads the clock directly;
- **control object** (:class:`ControlObject`) -- glue that routes client
  invocations to the replication object and fronts the semantics object
  for it.

Clients never see the composition: :meth:`DistributedSharedObject.bind`
installs a local object in the client's address space and hands back a
:class:`Stub` through which methods are invoked.
"""

from repro.core.ids import Address, ObjectId, WriteId, fresh_object_id
from repro.core.interfaces import ReplicationObject, Role, SemanticsObject
from repro.core.control import ControlObject
from repro.core.local_object import LocalObject
from repro.core.stub import Stub

# The dso module pulls in the replication engines, which in turn import the
# coherence package; importing it eagerly here would close an import cycle
# (coherence -> core -> dso -> replication -> coherence).  PEP 562 lazy
# attribute access keeps `from repro.core import DistributedSharedObject`
# working without the cycle.
_DSO_EXPORTS = {"BindError", "BoundClient", "DistributedSharedObject", "Store"}


def __getattr__(name: str):
    if name in _DSO_EXPORTS:
        from repro.core import dso

        return getattr(dso, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Address",
    "BindError",
    "BoundClient",
    "Store",
    "ControlObject",
    "DistributedSharedObject",
    "LocalObject",
    "ObjectId",
    "ReplicationObject",
    "Role",
    "SemanticsObject",
    "Stub",
    "WriteId",
    "fresh_object_id",
]
