"""Tests for the classical Web-caching baseline stack."""

from repro.baselines.browser import HttpBrowser
from repro.baselines.origin import HttpOrigin
from repro.baselines.proxy import CacheMode, HttpProxy
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator

from tests.conftest import resolve


def build(mode=CacheMode.VALIDATE, ttl=10.0, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.05))
    origin = HttpOrigin(sim, net, "origin", pages={"p.html": "v1"})
    proxy = HttpProxy(sim, net, "proxy", upstream="origin", mode=mode, ttl=ttl)
    browser = HttpBrowser(sim, net, "browser", server="proxy")
    return sim, origin, proxy, browser


def test_get_through_proxy():
    sim, origin, proxy, browser = build()
    result = resolve(sim, browser.get("p.html"))
    assert result.found and result.content == "v1"
    assert proxy.counters["miss"] == 1


def test_validation_mode_revalidates_every_hit():
    sim, origin, proxy, browser = build(CacheMode.VALIDATE)
    resolve(sim, browser.get("p.html"))
    resolve(sim, browser.get("p.html"))
    resolve(sim, browser.get("p.html"))
    assert proxy.counters["validate"] == 2
    # Unmodified page: the origin answered 304, not a full 200.
    assert origin.counters["304"] == 2
    assert origin.counters["200"] == 1


def test_validation_mode_never_serves_stale():
    sim, origin, proxy, browser = build(CacheMode.VALIDATE)
    resolve(sim, browser.get("p.html"))
    # Update at the origin directly.
    origin.document.write_page("p.html", "v2")
    result = resolve(sim, browser.get("p.html"))
    assert result.content == "v2"
    assert result.version == origin.current_version("p.html")


def test_ttl_mode_serves_stale_within_ttl():
    sim, origin, proxy, browser = build(CacheMode.TTL, ttl=30.0)
    resolve(sim, browser.get("p.html"))
    origin.document.write_page("p.html", "v2")
    result = resolve(sim, browser.get("p.html"))
    assert result.content == "v1", "TTL serves the cached copy while fresh"
    assert proxy.counters["hit"] == 1


def test_ttl_mode_refreshes_after_expiry():
    sim, origin, proxy, browser = build(CacheMode.TTL, ttl=5.0)
    resolve(sim, browser.get("p.html"))
    origin.document.write_page("p.html", "v2")
    sim.run(until=sim.now + 6.0)
    result = resolve(sim, browser.get("p.html"))
    assert result.content == "v2"
    assert proxy.counters["expired"] == 1


def test_none_mode_always_goes_upstream():
    sim, origin, proxy, browser = build(CacheMode.NONE)
    resolve(sim, browser.get("p.html"))
    resolve(sim, browser.get("p.html"))
    assert origin.counters["get"] == 2
    assert proxy.counters["hit"] == 0


def test_missing_page_404():
    sim, origin, proxy, browser = build()
    result = resolve(sim, browser.get("ghost.html"))
    assert not result.found
    assert origin.counters["404"] == 1


def test_put_passes_through_proxy():
    sim, origin, proxy, browser = build()
    version = resolve(sim, browser.put("p.html", "v2"))
    assert version == 2
    assert origin.document.pages["p.html"].content == "v2"
    assert proxy.counters["put_forward"] == 1


def test_put_append_mode():
    sim, origin, proxy, browser = build()
    resolve(sim, browser.put("p.html", "+more", append=True))
    assert origin.document.pages["p.html"].content == "v1+more"


def test_ims_304_cheaper_than_200():
    """The validation scheme's saving: 304s carry no page body."""
    sim, origin, proxy, browser = build(CacheMode.VALIDATE)
    origin.document.write_page("big.html", "x" * 4096)
    resolve(sim, browser.get("big.html"))
    origin_bytes_after_miss = origin.comm.bytes_sent
    resolve(sim, browser.get("big.html"))
    revalidation_bytes = origin.comm.bytes_sent - origin_bytes_after_miss
    # The proxy still serves the body to the browser, but the
    # origin-to-proxy leg carries only the 304.
    assert revalidation_bytes < 4096, "revalidation must not re-ship the body"
    assert origin.counters["304"] == 1


def test_browser_latency_samples():
    sim, origin, proxy, browser = build()
    resolve(sim, browser.get("p.html"))
    assert len(browser.read_latencies) == 1
    assert browser.read_latencies[0] > 0
    assert len(browser.write_latencies) == 0
    resolve(sim, browser.put("p.html", "v2"))
    assert len(browser.read_latencies) == 1
    assert len(browser.write_latencies) == 1
    assert browser.write_latencies[0] > 0
