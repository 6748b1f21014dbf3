"""The Web-document semantics object.

Implements the paper's document interface -- "a method for selecting a
page, and reading it in HTML format ... likewise, we offer a method for
replacing one of the document's pages" -- plus the incremental operations
(append) the PRAM example depends on.

All methods are reached through marshalled invocations; nothing in the
replication machinery knows these method names.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.comm.invocation import MarshalledInvocation
from repro.core.interfaces import SemanticsObject
from repro.web.page import Page, PageNotFound


class WebDocument(SemanticsObject):
    """A collection of named pages with versions.

    Parameters
    ----------
    pages:
        Initial content, name -> HTML string.
    clock:
        Callable returning the current time for ``last_modified`` stamps;
        the hosting store injects the simulation clock via
        :meth:`set_clock`.
    """

    #: Methods that modify state; everything else is read-only.
    WRITE_METHODS = frozenset(
        {"write_page", "append_to_page", "delete_page"}
    )

    def __init__(
        self,
        pages: Optional[Dict[str, str]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.pages: Dict[str, Page] = {}
        self._clock = clock or (lambda: 0.0)
        for name, content in (pages or {}).items():
            self.pages[name] = Page(
                name=name, content=content, version=1, last_modified=0.0
            )

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Inject the time source used for ``last_modified`` stamps."""
        self._clock = clock

    # -- document methods (invocation targets) ------------------------------

    def read_page(self, name: str) -> Dict[str, Any]:
        """Return a page's content and metadata."""
        page = self.pages.get(name)
        if page is None:
            raise PageNotFound(name)
        return page.to_dict()

    def write_page(
        self, name: str, content: str, content_type: str = "text/html"
    ) -> Dict[str, Any]:
        """Create or replace a page."""
        if name not in self.pages:
            self.pages[name] = Page(
                name=name,
                content=content,
                content_type=content_type,
                version=1,
                last_modified=self._clock(),
            )
            return {"name": name, "version": 1}
        # In place, as an append: every reader got a copy (``to_dict``).
        existing = self.pages[name]
        existing.content = content
        existing.content_type = content_type
        existing.version += 1
        existing.last_modified = self._clock()
        return {"name": name, "version": existing.version}

    def append_to_page(self, name: str, text: str) -> Dict[str, Any]:
        """Incrementally extend a page (creating it if absent).

        The operation the paper's conference-page master performs: it is
        order-sensitive, which is what makes PRAM coherence necessary.
        """
        existing = self.pages.get(name)
        if existing is None:
            return self.write_page(name, text)
        existing.content += text
        existing.version += 1
        existing.last_modified = self._clock()
        return {"name": name, "version": existing.version}

    def delete_page(self, name: str) -> Dict[str, Any]:
        """Remove a page."""
        if name not in self.pages:
            raise PageNotFound(name)
        del self.pages[name]
        return {"name": name, "deleted": True}

    def list_pages(self) -> List[str]:
        """Names of all pages, sorted."""
        return sorted(self.pages)

    #: The invocation targets, by name: all :meth:`apply` may call.
    METHODS: Dict[str, Callable[..., Any]] = {
        "read_page": read_page,
        "write_page": write_page,
        "append_to_page": append_to_page,
        "delete_page": delete_page,
        "list_pages": list_pages,
    }

    # -- SemanticsObject interface ----------------------------------------------

    def apply(self, invocation: MarshalledInvocation) -> Any:
        """Run the one of :attr:`METHODS` that ``invocation`` names.

        A read-only invocation of a :attr:`WRITE_METHODS` member is
        refused: only replication may change a replica, so a "read" that
        would write never reaches the page.
        """
        try:
            method = self.METHODS[invocation.method]
        except KeyError:
            raise AttributeError(
                f"WebDocument has no method {invocation.method!r}"
            ) from None
        if invocation.read_only and invocation.method in self.WRITE_METHODS:
            raise ValueError(
                f"{invocation.method!r} modifies the document; a read-only "
                "invocation cannot call it"
            )
        if invocation.kwargs:
            return method(self, *invocation.args, **dict(invocation.kwargs))
        return method(self, *invocation.args)

    def touched_keys(self, invocation: MarshalledInvocation) -> Sequence[str]:
        """The page a page method names, by position or as ``name=``."""
        if invocation.method in (
            "read_page", "write_page", "append_to_page", "delete_page"
        ):
            if invocation.args:
                return (str(invocation.args[0]),)
            kwargs = invocation.kwargs_dict()
            if "name" in kwargs:
                return (str(kwargs["name"]),)
        return ()

    def missing_keys(self, keys: Sequence[str]) -> Sequence[str]:
        """The names in ``keys`` this document holds no page for."""
        return tuple(key for key in keys if key not in self.pages)

    def can_apply(self, invocation: MarshalledInvocation) -> bool:
        """Whether the page a delta (append, delete) needs is here."""
        # Appends and deletes are deltas: they need the base page.  A
        # replica that never cached the page must skip them (the engine
        # marks the page uncached; a later read refetches it whole).
        if invocation.method in ("append_to_page", "delete_page"):
            keys = self.touched_keys(invocation)
            return not self.missing_keys(keys)
        return True

    def snapshot(self) -> Dict[str, Any]:
        """Every page, in wire form."""
        return {name: page.to_dict() for name, page in self.pages.items()}

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace every page with those of a :meth:`snapshot`."""
        self.pages = {
            name: Page.from_dict(data) for name, data in state.items()
        }

    def partial_snapshot(self, keys: Sequence[str]) -> Dict[str, Any]:
        """The pages named in ``keys`` that exist, in wire form."""
        return {
            name: self.pages[name].to_dict()
            for name in keys
            if name in self.pages
        }

    def restore_partial(self, state: Dict[str, Any]) -> None:
        """Replace or add the pages of a :meth:`partial_snapshot`."""
        for name, data in state.items():
            self.pages[name] = Page.from_dict(data)

    def fresh(self) -> "WebDocument":
        """An empty document on the same clock."""
        return WebDocument(clock=self._clock)

    # -- equality (convergence checks compare snapshots) ----------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WebDocument):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __hash__(self) -> int:  # pragma: no cover - documents are mutable
        return id(self)
