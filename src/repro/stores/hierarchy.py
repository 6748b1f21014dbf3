"""Layered store-system introspection (Fig. 2 of the paper).

The system model separates server-managed replicas (permanent and
object-initiated stores) from client-managed ones (client-initiated
stores), with coherence guarantees allowed to weaken below the store-scope
layer.  :func:`describe_hierarchy` extracts that layered view from a live
object for the F2 experiment and for debugging.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.dso import DistributedSharedObject
from repro.core.interfaces import Role


@dataclasses.dataclass(frozen=True)
class StoreInfo:
    """One store's position and guarantee level."""

    address: str
    role: Role
    parent: Optional[str]
    children: List[str]
    #: Whether the object-based model is enforced here (vs eventual).
    enforced: bool
    model: str


@dataclasses.dataclass(frozen=True)
class HierarchyView:
    """The layered store organisation of one distributed object."""

    object_id: str
    layers: Dict[Role, List[StoreInfo]]

    def layer(self, role: Role) -> List[StoreInfo]:
        """Stores at one Fig. 2 layer."""
        return self.layers.get(role, [])


def describe_hierarchy(dso: DistributedSharedObject) -> HierarchyView:
    """Build the layered view of a live distributed shared object."""
    layers: Dict[Role, List[StoreInfo]] = {}
    for address, store in dso.stores.items():
        engine = store.engine
        info = StoreInfo(
            address=address,
            role=store.role,
            parent=engine.parent,
            children=list(engine.children),
            enforced=engine.enforced,
            model=dso.policy.model.value,
        )
        layers.setdefault(store.role, []).append(info)
    return HierarchyView(object_id=dso.object_id, layers=layers)
