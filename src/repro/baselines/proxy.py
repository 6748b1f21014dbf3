"""The baseline proxy cache.

Implements the two coherence schemes the paper describes for the 1998 Web
(Section 1) plus a pass-through mode:

- ``VALIDATE``: on every hit, revalidate with the origin using
  if-modified-since; "provided the caching and update times are known
  correctly, this scheme never returns an outdated page".
- ``TTL``: "a page that has just been cached remains valid until some
  expiration time"; may serve stale pages.
- ``NONE``: no caching; every request forwarded.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Dict, Optional

from repro.baselines import origin as http
from repro.comm.endpoint import CommunicationObject
from repro.comm.message import Message
from repro.net.network import Network
from repro.sim.future import Future
from repro.sim.kernel import Simulator
from repro.web.page import Page


class CacheMode(enum.Enum):
    """Proxy coherence scheme."""

    VALIDATE = "validate"
    TTL = "ttl"
    NONE = "none"


@dataclasses.dataclass
class _Entry:
    page: Page
    fetched_at: float


class HttpProxy:
    """A site-wide proxy cache between browsers and the origin."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        upstream: str,
        mode: CacheMode = CacheMode.VALIDATE,
        ttl: float = 30.0,
    ) -> None:
        self.sim = sim
        self.address = address
        self.upstream = upstream
        self.mode = mode
        self.ttl = ttl
        self.comm = CommunicationObject(sim, network, address)
        self.comm.set_handler(self._on_message)
        self.cache: Dict[str, _Entry] = {}
        self.counters: collections.Counter = collections.Counter()

    # -- request handling ------------------------------------------------------

    def _on_message(self, src: str, message: Message) -> None:
        if message.kind == http.GET:
            self._on_get(src, message)
        elif message.kind == http.PUT:
            # Writes pass straight through to the origin.
            self._forward_put(src, message)

    def _on_get(self, src: str, message: Message) -> None:
        name = message.body["page"]
        entry = self.cache.get(name)
        if self.mode is CacheMode.NONE or entry is None:
            self.counters["miss"] += 1
            self._fetch(src, message, name, ims=None)
            return
        if self.mode is CacheMode.TTL:
            if self.sim.now - entry.fetched_at <= self.ttl:
                self.counters["hit"] += 1
                self._serve(src, message, entry.page)
            else:
                self.counters["expired"] += 1
                self._fetch(src, message, name, ims=entry.page.last_modified)
            return
        # VALIDATE: always revalidate with if-modified-since.
        self.counters["validate"] += 1
        self._fetch(src, message, name, ims=entry.page.last_modified)

    def _serve(self, src: str, request: Message, page: Page) -> None:
        self.comm.reply(
            src, request.reply(http.OK, {"page_data": page.to_dict()})
        )

    def _fetch(
        self, src: str, request: Message, name: str, ims: Optional[float]
    ) -> None:
        body = {"page": name}
        if ims is not None:
            body["if_modified_since"] = ims
        self.counters["upstream_get"] += 1
        upstream_reply = self.comm.request(
            self.upstream, Message(http.GET, body)
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException:
                self.comm.reply(
                    src, request.reply(http.NOT_FOUND, {"page": name})
                )
                return
            if reply.kind == http.OK:
                page = Page.from_dict(reply.body["page_data"])
                if self.mode is not CacheMode.NONE:
                    self.cache[name] = _Entry(page=page, fetched_at=self.sim.now)
                self._serve(src, request, page)
            elif reply.kind == http.NOT_MODIFIED:
                entry = self.cache[name]
                entry.fetched_at = self.sim.now
                self._serve(src, request, entry.page)
            else:
                self.cache.pop(name, None)
                self.comm.reply(
                    src,
                    Message(reply.kind, dict(reply.body),
                            reply_to=request.msg_id),
                )

        upstream_reply.add_callback(on_reply)

    def _forward_put(self, src: str, message: Message) -> None:
        self.counters["put_forward"] += 1
        upstream_reply = self.comm.request(
            self.upstream, Message(http.PUT, dict(message.body))
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException:
                self.comm.reply(
                    src, message.reply(http.NOT_FOUND, dict(message.body))
                )
                return
            self.comm.reply(
                src,
                Message(reply.kind, dict(reply.body), reply_to=message.msg_id),
            )

        upstream_reply.add_callback(on_reply)
