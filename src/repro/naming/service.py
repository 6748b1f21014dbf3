"""Object handle -> contact address resolution.

In Globe, binding to a distributed shared object starts by resolving its
handle to contact points.  This in-process service keeps the mapping.
"""

from __future__ import annotations

from typing import Dict, List


class UnknownObject(KeyError):
    """Raised when resolving a handle that was never registered."""


class NameService:
    """Registry of contact addresses per distributed object."""

    def __init__(self) -> None:
        self._contacts: Dict[str, List[str]] = {}

    def register(self, object_id: str, address: str) -> None:
        """Add a contact address for an object (idempotent)."""
        contacts = self._contacts.setdefault(object_id, [])
        if address not in contacts:
            contacts.append(address)

    def unregister(self, object_id: str, address: str) -> None:
        """Remove a contact address (no-op if absent)."""
        contacts = self._contacts.get(object_id)
        if contacts and address in contacts:
            contacts.remove(address)

    def resolve(self, object_id: str) -> List[str]:
        """All contact addresses, in registration order."""
        if object_id not in self._contacts or not self._contacts[object_id]:
            raise UnknownObject(object_id)
        return list(self._contacts[object_id])
