"""Tests for metrics: percentiles, staleness, traffic, table rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.trace import TraceRecorder
from repro.core.ids import WriteId
from repro.metrics.report import percentile, summarize
from repro.metrics.staleness import read_staleness, staleness_summary
from repro.metrics.tables import render_table
from repro.metrics.traffic import collect_traffic
from repro.net.network import Network
from repro.report.grid import STRATEGIES
from repro.sim.kernel import Simulator
from repro.workload.profiles import get_profile, run_profile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_within_sample_bounds(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.count == 0 and summary.mean == 0.0

    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.maximum == 3.0

    def test_row_renders(self):
        row = summarize([1.0]).row("label")
        assert row[0] == "label" and row[1] == "1"


class TestStaleness:
    def test_fresh_read(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "s")
        trace.record_read(2.0, "cache", "u", served_vc={"m": 1})
        samples = read_staleness(trace)
        assert len(samples) == 1
        assert samples[0].fresh
        assert samples[0].time_lag == 0.0

    def test_stale_read_version_and_time_lag(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "s")
        trace.record_write_ack(2.0, "m", WriteId("m", 2), "s")
        trace.record_read(5.0, "cache", "u", served_vc={})
        sample = read_staleness(trace)[0]
        assert sample.version_lag == 2
        assert sample.time_lag == pytest.approx(4.0)

    def test_unacked_writes_do_not_count(self):
        trace = TraceRecorder()
        trace.record_write_issue(1.0, "m", WriteId("m", 1), "s")
        trace.record_read(2.0, "cache", "u", served_vc={})
        assert read_staleness(trace)[0].fresh

    def test_summary_fraction(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "s")
        trace.record_read(2.0, "c", "u", served_vc={})
        trace.record_read(3.0, "c", "u", served_vc={"m": 1})
        summary = staleness_summary(trace)
        assert summary.reads == 2
        assert summary.stale_fraction == 0.5

    def test_store_filter(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "s")
        trace.record_read(2.0, "c1", "u", served_vc={})
        trace.record_read(2.0, "c2", "u", served_vc={"m": 1})
        assert staleness_summary(trace, stores=["c2"]).stale_fraction == 0.0


class TestTraffic:
    def test_collects_network_and_engine_counters(self):
        sim = Simulator()
        net = Network(sim)
        net.register("a", lambda *a: None)
        net.register("b", lambda *a: None)
        net.send("a", "b", "x", size_bytes=10)
        sim.run_until_idle()

        class FakeEngine:
            counters = {"tx:update": 3, "rx:read": 1}

        summary = collect_traffic(net, [FakeEngine()])
        assert summary.datagrams_sent == 1
        assert summary.bytes_sent == 10
        assert summary.kind("tx:update") == 3
        assert summary.coherence_messages == 3

    @pytest.mark.parametrize("workload",
                             ["read-heavy", "write-heavy", "balanced"])
    @pytest.mark.parametrize("protocol", ["push-invalidate", "push-update"])
    def test_fault_free_traffic_decomposes_by_kind(self, protocol, workload):
        # Reads, demands and writes are request/reply pairs; pushes are
        # one datagram each.  A demand beyond one cold miss per page per
        # cache plus one per invalidation received is wasted traffic.
        deployment = run_profile(
            STRATEGIES[protocol].build_policy(), get_profile(workload),
            n_caches=4, seed=3,
        )
        traffic = collect_traffic(deployment.network, deployment.engines)
        assert traffic.datagrams_sent == (
            2 * traffic.kind("rx:read") + traffic.kind("tx:invalidate")
            + traffic.kind("tx:update") + 2 * traffic.kind("tx:demand")
            + 2 * traffic.kind("rx:write")
        )
        pages = len(deployment.store("server").state())
        assert traffic.kind("tx:demand") <= (
            pages * len(deployment.caches) + traffic.kind("rx:invalidate")
        )


class TestRenderTable:
    def test_basic_shape(self):
        text = render_table(["a", "b"], [["1", "2"], ["3", "4"]],
                            title="T")
        assert "T" in text
        assert "| 1 " in text and "| 4 " in text

    def test_wraps_long_cells(self):
        text = render_table(["col"], [["word " * 30]], max_cell_width=20)
        assert all(len(line) < 30 for line in text.splitlines())

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_multiline_cells(self):
        text = render_table(["v"], [["line1\nline2"]])
        assert "line1" in text and "line2" in text
