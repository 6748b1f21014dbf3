"""Unit tests for the trace checkers: each must accept compliant histories
and flag the canonical violation for its model."""

from repro.coherence import checkers
from repro.coherence.trace import TraceRecorder
from repro.core.ids import WriteId


def apply(trace, store, client, seqno, vc=None, **kw):
    trace.record_apply(
        time=float(len(trace.events)),
        store=store,
        wid=WriteId(client, seqno),
        applied_vc=vc or {client: seqno},
        **kw,
    )


class TestPramChecker:
    def test_clean_history_passes(self):
        trace = TraceRecorder()
        for seqno in (1, 2, 3):
            apply(trace, "s1", "m", seqno)
        assert checkers.check_pram(trace) == []

    def test_inversion_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "m", 2)
        apply(trace, "s1", "m", 1)
        violations = checkers.check_pram(trace)
        assert any("inversion" in v for v in violations)

    def test_gap_flagged_when_gapless_required(self):
        trace = TraceRecorder()
        apply(trace, "s1", "m", 1)
        apply(trace, "s1", "m", 3)
        assert any("gap" in v for v in checkers.check_pram(trace))
        assert checkers.check_fifo(trace) == []

    def test_install_resets_expectations(self):
        trace = TraceRecorder()
        trace.record_install(0.0, "s1", {"m": 5})
        apply(trace, "s1", "m", 6)
        assert checkers.check_pram(trace) == []

    def test_interleaved_clients_checked_independently(self):
        trace = TraceRecorder()
        apply(trace, "s1", "a", 1)
        apply(trace, "s1", "b", 1)
        apply(trace, "s1", "a", 2)
        apply(trace, "s1", "b", 2)
        assert checkers.check_pram(trace) == []


class TestCausalChecker:
    def test_satisfied_deps_pass(self):
        trace = TraceRecorder()
        apply(trace, "s1", "a", 1, deps={})
        apply(trace, "s1", "b", 1, deps={"a": 1})
        assert checkers.check_causal(trace) == []

    def test_unsatisfied_deps_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "b", 1, deps={"a": 1})
        apply(trace, "s1", "a", 1, deps={})
        assert any("causal" in v for v in checkers.check_causal(trace))


class TestSequentialChecker:
    def test_agreeing_stores_pass(self):
        trace = TraceRecorder()
        for store in ("s1", "s2"):
            apply(trace, store, "a", 1, global_seq=1)
            apply(trace, store, "b", 1, global_seq=2)
        assert checkers.check_sequential(trace) == []

    def test_missing_global_seq_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "a", 1)
        assert checkers.check_sequential(trace)

    def test_conflicting_positions_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "a", 1, global_seq=1)
        apply(trace, "s2", "a", 1, global_seq=2)
        assert any("positions" in v for v in checkers.check_sequential(trace))

    def test_out_of_order_application_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "b", 1, global_seq=2)
        apply(trace, "s1", "a", 1, global_seq=1)
        assert checkers.check_sequential(trace)


class TestEventualChecker:
    def test_all_delivered_passes(self):
        trace = TraceRecorder()
        trace.record_write_issue(0.0, "a", WriteId("a", 1), "s1")
        apply(trace, "s1", "a", 1)
        apply(trace, "s2", "a", 1)
        assert checkers.check_eventual_delivery(trace) == []

    def test_missing_delivery_flagged(self):
        trace = TraceRecorder()
        trace.record_write_issue(0.0, "a", WriteId("a", 1), "s1")
        apply(trace, "s1", "a", 1)
        apply(trace, "s2", "b", 1)  # s2 never saw a:1
        violations = checkers.check_eventual_delivery(trace)
        assert any("s2" in v for v in violations)

    def test_superseded_covered_by_version_ok(self):
        trace = TraceRecorder()
        trace.record_write_issue(0.0, "a", WriteId("a", 1), "s1")
        trace.record_write_issue(0.1, "a", WriteId("a", 2), "s1")
        apply(trace, "s1", "a", 1)
        apply(trace, "s1", "a", 2)
        # s2 skipped a:1 (FIFO) but its version covers it.
        apply(trace, "s2", "a", 2, vc={"a": 2})
        assert checkers.check_eventual_delivery(trace) == []

    def test_convergence_checker(self):
        assert checkers.check_convergence({"a": {"x": 1}, "b": {"x": 1}}) == []
        assert checkers.check_convergence({"a": {"x": 1}, "b": {"x": 2}})


class TestSessionCheckers:
    def test_ryw_clean(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "server")
        trace.record_read(2.0, "cache", "m", served_vc={"m": 1})
        assert checkers.check_read_your_writes(trace) == []

    def test_ryw_violation(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "server")
        trace.record_read(2.0, "cache", "m", served_vc={})
        assert checkers.check_read_your_writes(trace)

    def test_ryw_only_counts_prior_writes(self):
        trace = TraceRecorder()
        trace.record_read(0.5, "cache", "m", served_vc={})
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "server")
        assert checkers.check_read_your_writes(trace) == []

    def test_monotonic_reads_clean(self):
        trace = TraceRecorder()
        trace.record_read(1.0, "s1", "u", served_vc={"m": 1})
        trace.record_read(2.0, "s2", "u", served_vc={"m": 2})
        assert checkers.check_monotonic_reads(trace) == []

    def test_monotonic_reads_regression_flagged(self):
        trace = TraceRecorder()
        trace.record_read(1.0, "s1", "u", served_vc={"m": 2})
        trace.record_read(2.0, "s2", "u", served_vc={"m": 1})
        assert checkers.check_monotonic_reads(trace)

    def test_monotonic_writes_inversion_flagged(self):
        trace = TraceRecorder()
        apply(trace, "s1", "m", 2)
        apply(trace, "s1", "m", 1)
        assert checkers.check_monotonic_writes(trace, clients=["m"])

    def test_wfr_clean_and_violated(self):
        clean = TraceRecorder()
        clean.record_write_issue(0.0, "b", WriteId("b", 1), "s1",
                                 deps={"a": 1})
        apply(clean, "s1", "a", 1)
        apply(clean, "s1", "b", 1)
        assert checkers.check_writes_follow_reads(clean) == []

        bad = TraceRecorder()
        bad.record_write_issue(0.0, "b", WriteId("b", 1), "s1", deps={"a": 1})
        apply(bad, "s1", "b", 1)
        apply(bad, "s1", "a", 1)
        assert checkers.check_writes_follow_reads(bad)

    def test_client_filter(self):
        trace = TraceRecorder()
        trace.record_write_ack(1.0, "m", WriteId("m", 1), "server")
        trace.record_read(2.0, "cache", "m", served_vc={})
        assert checkers.check_read_your_writes(trace, clients=["other"]) == []


def _monotonic_reads_by_scan(trace, clients=None):
    """The per-client rescan ``check_monotonic_reads`` used to be: one pass
    over the trace for the client list and one more per client."""
    from repro.coherence.trace import ReadEvent
    from repro.coherence.vector_clock import VectorClock

    if clients is None:
        clients = []
        for event in trace.events:
            client = getattr(event, "client_id", None)
            if client is not None and client not in clients:
                clients.append(client)
    violations = []
    for client_id in clients:
        floor = VectorClock()
        reads = [e for e in trace.events
                 if isinstance(e, ReadEvent) and e.client_id == client_id]
        for event in reads:
            served = VectorClock(event.served_vc)
            if not served.dominates(floor):
                violations.append(
                    f"MR violation: read by {client_id} at {event.store} "
                    f"(t={event.time:.3f}) regressed below {floor.as_dict()}"
                )
            floor.merge(served)
    return violations


class TestSinglePassScans:
    """The one-pass participant scans give the rescans' exact answers."""

    @staticmethod
    def many_clients_with_planted_regressions():
        trace = TraceRecorder()
        for step in range(1, 6):
            apply(trace, f"cache-{step % 3}", "m", step)
            trace.record_write_issue(float(step), "m", WriteId("m", step),
                                     "server")
            for client in range(120):
                # Reader 7 and reader 99 each read one stale copy.
                seen = step - 2 if client in (7, 99) and step == 4 else step
                trace.record_read(float(step), f"cache-{client % 3}",
                                  f"reader-{client}",
                                  served_vc={"m": seen} if seen else {})
        return trace

    def test_monotonic_reads_matches_the_rescan(self):
        trace = self.many_clients_with_planted_regressions()
        violations = checkers.check_monotonic_reads(trace)
        assert len(violations) == 2
        assert violations == _monotonic_reads_by_scan(trace)
        subset = ["reader-99", "nobody", "reader-7", "reader-3"]
        assert (checkers.check_monotonic_reads(trace, clients=subset)
                == _monotonic_reads_by_scan(trace, clients=subset))

    def test_participants_in_first_seen_order(self):
        trace = self.many_clients_with_planted_regressions()
        # A write issue names its store too; only reads are left out.
        assert trace.stores() == ["cache-1", "server", "cache-2", "cache-0"]
        assert trace.clients() == ["m"] + [f"reader-{n}" for n in range(120)]
