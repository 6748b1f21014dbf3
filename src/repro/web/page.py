"""Pages: the unit of content inside a Web document."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict


class PageNotFound(KeyError):
    """Raised when reading a page the document does not contain."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it plain
        return self.args[0] if self.args else "page not found"


@dataclasses.dataclass(slots=True)
class Page:
    """One named page (or embedded resource) of a Web document.

    ``version`` counts writes to this page; ``last_modified`` is the
    document clock's value at the last write, the field classic Web cache
    validation (if-modified-since) keys on.
    """

    name: str
    content: str = ""
    content_type: str = "text/html"
    version: int = 0
    last_modified: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Wire/snapshot form."""
        return {
            "name": self.name,
            "content": self.content,
            "content_type": self.content_type,
            "version": self.version,
            "last_modified": self.last_modified,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Page":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            content=data.get("content", ""),
            content_type=data.get("content_type", "text/html"),
            version=int(data.get("version", 0)),
            last_modified=float(data.get("last_modified", 0.0)),
        )
