"""Golden trace determinism: one scenario, one byte-exact trace.

The observability acceptance claims: a seeded simulated run traces
deterministically (so the JSONL is golden-pinnable), the identical
trace comes back in process and from the sweep hub's workers (the trace
is built inside whichever worker evaluates the point, and virtual time
plus canonical serialization leave nothing host-dependent), and the
live backend emits the same protocol-decision shape as the simulator
for the same scenario (timestamps and transport interleavings differ,
decisions must not).

Regenerate the pin after an intentional event-vocabulary change::

    PYTHONPATH=src python - <<'EOF'
    from repro.exec.live import live_smoke_point
    from repro.obs import trace_run, events_jsonl
    with trace_run() as t:
        live_smoke_point(
            {"backend": "sim", "writes": 3, "n_caches": 2, "seed": 7},
            seed=0)
    open("tests/golden/trace_backend_smoke.jsonl", "w").write(
        events_jsonl(t.events))
    EOF
"""

from pathlib import Path

import pytest

from repro.exec import run_sweep
from repro.exec.live import live_smoke_point
from repro.exec.spec import SweepSpec
from repro.obs import events_jsonl, trace_run

GOLDEN = Path(__file__).parent / "golden" / "trace_backend_smoke.jsonl"

#: The pinned scenario: the backend-smoke script on the simulator.
CONFIG = {"backend": "sim", "writes": 3, "n_caches": 2, "seed": 7}


def traced_smoke_run(config=CONFIG):
    """The scenario's canonical JSONL trace, recorded in-process."""
    with trace_run() as tracer:
        live_smoke_point(dict(config), seed=0)
    return tracer


class TestGoldenTrace:
    def test_trace_matches_pinned_golden(self):
        text = events_jsonl(traced_smoke_run().events)
        assert text == GOLDEN.read_text(), (
            "simulated trace diverged from tests/golden/"
            "trace_backend_smoke.jsonl -- if the event vocabulary "
            "changed intentionally, regenerate the pin (see module "
            "docstring)"
        )

    def test_trace_is_deterministic_across_runs(self):
        assert events_jsonl(traced_smoke_run().events) == events_jsonl(
            traced_smoke_run().events)

    def test_trace_covers_every_layer(self):
        kinds = {event["kind"] for event in traced_smoke_run().events}
        assert {"sim.schedule", "sim.fire", "net.send", "net.deliver",
                "repl.write", "repl.read", "repl.propagate",
                "repl.emit"} <= kinds

    @pytest.mark.parametrize("parallel", [1, 2],
                             ids=["serial", "distributed"])
    def test_trace_bit_identical_under_every_executor(
            self, parallel, tmp_path, monkeypatch):
        # REPRO_TRACE=<dir> makes the evaluating worker trace the point
        # and persist trace-<label>.jsonl there, wherever it runs: in
        # this process, or in the hub's forked workers.
        trace_dir = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE", str(trace_dir))
        spec = SweepSpec(name="obs-golden", run_point=live_smoke_point)
        spec.add("sim", **CONFIG)
        spec.add("again", **CONFIG)
        run_sweep(spec, parallel=parallel)
        for label in spec.labels():
            written = trace_dir / f"trace-{label}.jsonl"
            assert written.read_text() == GOLDEN.read_text(), (
                f"parallel={parallel} produced a different trace "
                f"for {label!r}"
            )


class TestSimLiveTraceParity:
    """Protocol-decision events are substrate-independent."""

    @pytest.fixture(scope="class")
    def shapes(self):
        shapes = {}
        for backend in ("sim", "live"):
            with trace_run() as tracer:
                live_smoke_point(dict(CONFIG, backend=backend), seed=0)
            shapes[backend] = tracer.events
        return shapes

    @staticmethod
    def _decisions(events):
        return [
            (event["kind"], event["node"],
             event.get("decision") or event.get("message"))
            for event in events if event["kind"].startswith("repl.")
        ]

    def test_replication_decisions_identical(self, shapes):
        assert self._decisions(shapes["sim"]) == self._decisions(
            shapes["live"])

    def test_network_event_vocabulary_identical(self, shapes):
        def net_shape(events):
            return sorted(
                (event["kind"], event["node"])
                for event in events if event["kind"].startswith("net.")
            )

        assert net_shape(shapes["sim"]) == net_shape(shapes["live"])

    def test_live_trace_serializes_canonically(self, shapes):
        text = events_jsonl(shapes["live"])
        assert text.count("\n") == len(shapes["live"])
        assert '"kind":"repl.write"' in text
