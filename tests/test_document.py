"""Unit tests for the Web-document semantics object."""

import pytest
from hypothesis import given, strategies as st

from repro.comm.invocation import MarshalledInvocation
from repro.web.document import WebDocument
from repro.web.page import Page, PageNotFound


def inv(method, *args, read_only=True, **kwargs):
    return MarshalledInvocation(method, args,
                                tuple(sorted(kwargs.items())), read_only)


class TestPageOperations:
    def test_initial_pages_start_at_version_one(self):
        doc = WebDocument(pages={"a.html": "hello"})
        assert doc.read_page("a.html")["version"] == 1

    def test_write_creates_and_bumps_version(self):
        doc = WebDocument()
        doc.write_page("a.html", "v1")
        doc.write_page("a.html", "v2")
        page = doc.read_page("a.html")
        assert page["content"] == "v2"
        assert page["version"] == 2

    def test_read_missing_page_raises(self):
        with pytest.raises(PageNotFound):
            WebDocument().read_page("nope.html")

    def test_append_extends_content(self):
        doc = WebDocument(pages={"a.html": "base"})
        doc.append_to_page("a.html", "+more")
        assert doc.read_page("a.html")["content"] == "base+more"

    def test_append_to_missing_page_creates_it(self):
        doc = WebDocument()
        doc.append_to_page("a.html", "start")
        assert doc.read_page("a.html")["content"] == "start"

    def test_delete_removes_page(self):
        doc = WebDocument(pages={"a.html": "x"})
        doc.delete_page("a.html")
        with pytest.raises(PageNotFound):
            doc.read_page("a.html")

    def test_delete_missing_raises(self):
        with pytest.raises(PageNotFound):
            WebDocument().delete_page("nope.html")

    def test_list_pages_sorted(self):
        doc = WebDocument(pages={"b": "2", "a": "1"})
        assert doc.list_pages() == ["a", "b"]

    def test_clock_stamps_last_modified(self):
        times = iter([5.0, 9.0])
        doc = WebDocument(clock=lambda: next(times))
        doc.write_page("a", "x")
        assert doc.read_page("a")["last_modified"] == 5.0


class TestInvocationInterface:
    def test_apply_dispatches(self):
        doc = WebDocument()
        result = doc.apply(inv("write_page", "a", "hi", read_only=False))
        assert result == {"name": "a", "version": 1}
        assert doc.apply(inv("read_page", "a"))["content"] == "hi"

    def test_apply_kwargs(self):
        doc = WebDocument()
        doc.apply(inv("write_page", "a", "hi", read_only=False,
                      content_type="text/plain"))
        assert doc.read_page("a")["content_type"] == "text/plain"

    def test_apply_unknown_method_raises(self):
        with pytest.raises(AttributeError):
            WebDocument().apply(inv("drop_database"))

    def test_apply_private_method_blocked(self):
        with pytest.raises(AttributeError):
            WebDocument().apply(inv("_clock"))

    def test_touched_keys_page_methods(self):
        doc = WebDocument()
        assert doc.touched_keys(inv("read_page", "a")) == ("a",)
        assert doc.touched_keys(inv("write_page", "a", "x")) == ("a",)
        assert doc.touched_keys(inv("list_pages")) == ()

    def test_touched_keys_from_kwargs(self):
        doc = WebDocument()
        assert doc.touched_keys(
            MarshalledInvocation("read_page", (), (("name", "k"),))
        ) == ("k",)

    def test_missing_keys(self):
        doc = WebDocument(pages={"a": "x"})
        assert doc.missing_keys(["a", "b"]) == ("b",)

    def test_can_apply_delta_needs_base(self):
        doc = WebDocument()
        assert doc.can_apply(inv("write_page", "a", "x", read_only=False))
        assert not doc.can_apply(inv("append_to_page", "a", "x",
                                     read_only=False))
        doc.write_page("a", "base")
        assert doc.can_apply(inv("append_to_page", "a", "x",
                                 read_only=False))


class TestStateTransfer:
    def test_snapshot_restore_roundtrip(self):
        doc = WebDocument(pages={"a": "1", "b": "2"})
        doc.append_to_page("a", "+")
        replica = doc.fresh()
        replica.restore(doc.snapshot())
        assert replica.snapshot() == doc.snapshot()

    def test_partial_snapshot_only_requested(self):
        doc = WebDocument(pages={"a": "1", "b": "2"})
        partial = doc.partial_snapshot(["a", "ghost"])
        assert set(partial) == {"a"}

    def test_restore_partial_merges(self):
        doc = WebDocument(pages={"a": "old", "b": "keep"})
        doc.restore_partial({"a": Page("a", "new", version=7).to_dict()})
        assert doc.read_page("a")["content"] == "new"
        assert doc.read_page("b")["content"] == "keep"

    def test_fresh_is_empty_with_same_clock(self):
        doc = WebDocument(pages={"a": "1"}, clock=lambda: 3.0)
        replica = doc.fresh()
        assert replica.list_pages() == []
        replica.write_page("x", "y")
        assert replica.read_page("x")["last_modified"] == 3.0

    def test_write_in_place_changes_no_earlier_copy(self):
        # ``write_page`` updates the page object in place: every copy
        # handed out before must keep the old content and version.
        doc = WebDocument(pages={"a": "old", "b": "keep"}, clock=lambda: 2.0)
        read = doc.read_page("a")
        full = doc.snapshot()
        partial = doc.partial_snapshot(["a"])
        doc.write_page("a", "new", content_type="text/plain")
        for copy in (read, full["a"], partial["a"]):
            assert copy == {"name": "a", "content": "old",
                            "content_type": "text/html", "version": 1,
                            "last_modified": 0.0}
        assert doc.read_page("a") == {"name": "a", "content": "new",
                                      "content_type": "text/plain",
                                      "version": 2, "last_modified": 2.0}

    def test_write_after_restore_partial_changes_neither_source(self):
        source = WebDocument(pages={"a": "old"})
        state = source.partial_snapshot(["a"])
        replica = WebDocument()
        replica.restore_partial(state)
        replica.write_page("a", "new")
        assert state["a"]["content"] == "old"
        assert state["a"]["version"] == 1
        assert source.read_page("a")["content"] == "old"
        assert replica.read_page("a")["version"] == 2
        # Restoring the same state again resets the replica's page only.
        replica.restore_partial(state)
        replica.write_page("a", "newer")
        assert state["a"]["content"] == "old"
        assert replica.read_page("a")["content"] == "newer"
        assert replica.read_page("a")["version"] == 2

    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.text(max_size=32), max_size=6))
    def test_snapshot_roundtrip_property(self, pages):
        doc = WebDocument(pages=pages)
        replica = WebDocument()
        replica.restore(doc.snapshot())
        assert replica == doc


class TestPage:
    def test_slotted(self):
        assert not hasattr(Page("a"), "__dict__")

    def test_wire_roundtrip(self):
        page = Page("a", "body", "text/plain", 4, 1.5)
        assert Page.from_dict(page.to_dict()) == page

    def test_page_not_found_str_is_plain(self):
        assert str(PageNotFound("x.html")) == "x.html"
