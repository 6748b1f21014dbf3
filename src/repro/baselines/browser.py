"""The baseline browser client."""

from __future__ import annotations

import dataclasses
from array import array

from repro.baselines import origin as http
from repro.comm.endpoint import CommunicationObject
from repro.comm.message import Message
from repro.net.network import Network
from repro.sim.future import Future
from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class FetchResult:
    """Outcome of a baseline page fetch."""

    page: str
    found: bool
    version: int
    last_modified: float
    content: str
    latency: float


class HttpBrowser:
    """A client speaking the baseline protocol to a proxy (or origin)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        server: str,
    ) -> None:
        self.sim = sim
        self.address = address
        self.server = server
        self.comm = CommunicationObject(sim, network, address)
        self.comm.set_handler(lambda src, msg: None)
        #: Latency samples, mirroring the framework client's metrics.
        self.read_latencies = array("d")
        self.write_latencies = array("d")

    def get(self, page: str) -> Future:
        """Fetch a page; resolves with a :class:`FetchResult`."""
        started = self.sim.now
        result: Future = Future()
        reply_future = self.comm.request(
            self.server, Message(http.GET, {"page": page})
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException as exc:
                result.set_error(exc)
                return
            latency = self.sim.now - started
            self.read_latencies.append(latency)
            if reply.kind == http.OK:
                data = reply.body["page_data"]
                result.set_result(
                    FetchResult(
                        page=page,
                        found=True,
                        version=int(data.get("version", 0)),
                        last_modified=float(data.get("last_modified", 0.0)),
                        content=data.get("content", ""),
                        latency=latency,
                    )
                )
            else:
                result.set_result(
                    FetchResult(
                        page=page,
                        found=False,
                        version=0,
                        last_modified=0.0,
                        content="",
                        latency=latency,
                    )
                )

        reply_future.add_callback(on_reply)
        return result

    def put(self, page: str, content: str, append: bool = False) -> Future:
        """Replace (or append to) a page at the origin; resolves with the
        new version number."""
        started = self.sim.now
        result: Future = Future()
        reply_future = self.comm.request(
            self.server,
            Message(http.PUT, {"page": page, "content": content,
                               "append": append}),
        )

        def on_reply(resolved: Future) -> None:
            try:
                reply = resolved.result()
            except BaseException as exc:
                result.set_error(exc)
                return
            self.write_latencies.append(self.sim.now - started)
            result.set_result(int(reply.body.get("version", 0)))

        reply_future.add_callback(on_reply)
        return result
