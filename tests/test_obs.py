"""The observability layer: trace recording, run manifests, CLI.

The golden-trace and cross-executor determinism claims live in
``test_obs_trace_golden.py``; this module covers the unit surface --
event flattening, the zero-cost disabled path, manifest round-trips,
the ``python -m repro.obs`` commands, and the telemetry the runner
attaches to sweeps and failures.
"""

import json

import pytest

import repro.obs
from repro.coherence.trace import TraceRecorder, _plain, coherence_signature
from repro.exec import ResultCache, run_sweep
from repro.exec.runner import SweepPointError
from repro.exec.spec import SweepSpec
from repro.faults.catalog import FAULT_PLANS
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs import (
    MANIFEST_NAME,
    RunManifest,
    events_jsonl,
    load_manifest,
    summarize_manifest,
    trace_run,
    validate_manifest,
)
from repro.obs import tracer as tracer_module
from repro.obs.cli import main as obs_main
from repro.obs.manifest import point_record
from repro.obs.tracer import env_trace_write
from repro.replication.policy import Propagation
from repro.report.grid import STRATEGIES
from repro.sim.kernel import Simulator
from repro.workload.profiles import PROFILES, run_profile


class TestTraceRecorderEvent:
    def test_event_envelope_and_detail(self):
        tracer = TraceRecorder()
        tracer.event(1.5, "net.send", node="a", obj="index.html",
                     dst="b", size=42)
        assert tracer.events == [{
            "t": 1.5, "kind": "net.send", "node": "a",
            "obj": "index.html", "dst": "b", "size": 42,
        }]

    def test_detail_values_flattened_to_plain_data(self):
        tracer = TraceRecorder()
        tracer.event(0.0, "x", reason=Propagation.INVALIDATE,
                     keys={"b", "a"}, nested={"k": (1, 2)})
        event = tracer.events[0]
        # Enums, sets and tuples leave as strings / sorted lists, so
        # the trace serializes identically under every executor.
        assert event["reason"] == str(Propagation.INVALIDATE)
        assert event["keys"] == ["a", "b"]
        assert event["nested"] == {"k": [1, 2]}

    def test_plain_passes_scalars_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert _plain(value) is value

    def test_jsonl_is_canonical(self):
        tracer = TraceRecorder()
        tracer.event(0.25, "b.kind", node="n", z=1, a=2)
        assert events_jsonl(tracer.events) == (
            '{"a":2,"kind":"b.kind","node":"n","obj":null,"t":0.25,"z":1}\n'
        )


class TestInstallAndDisabledPath:
    def test_disabled_by_default(self):
        assert tracer_module.ACTIVE is None

    def test_trace_run_installs_and_restores(self):
        assert tracer_module.ACTIVE is None
        with trace_run() as tracer:
            assert tracer_module.ACTIVE is tracer
            assert isinstance(tracer, TraceRecorder)
        assert tracer_module.ACTIVE is None

    def test_package_holds_no_stale_copy_of_the_slot(self):
        # A from-import would bind the slot's value at import time and
        # read None even inside trace_run(); the slot lives only in the
        # tracer module.
        with trace_run() as recorder:
            assert tracer_module.ACTIVE is recorder
            assert not hasattr(repro.obs, "ACTIVE")

    def test_nested_trace_runs_compose(self):
        with trace_run() as outer:
            tracer_module.ACTIVE.event(0.0, "outer.only")
            with trace_run() as inner:
                tracer_module.ACTIVE.event(0.0, "inner.only")
            assert tracer_module.ACTIVE is outer
        assert [e["kind"] for e in outer.events] == ["outer.only"]
        assert [e["kind"] for e in inner.events] == ["inner.only"]

    def test_hooks_emit_nothing_when_disabled(self):
        sim = Simulator(seed=1)
        network = Network(sim, latency=ConstantLatency(0.01))
        network.register("a", lambda src, payload, size: None)
        network.register("x", lambda src, payload, size: None)
        network.send("x", "a", {"m": 1}, size_bytes=10)
        sim.run_until_idle()
        # The scenario above would emit sim.* and net.* events; with no
        # tracer installed a later recording scope must start empty.
        with trace_run() as tracer:
            pass
        assert tracer.events == []

    def test_env_trace_write_flag_value_writes_nothing(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.chdir(tmp_path)
        tracer = TraceRecorder()
        tracer.event(0.0, "k")
        env_trace_write("pt", tracer)
        assert list(tmp_path.iterdir()) == []

    def test_env_trace_write_directory_value_writes_file(self, tmp_path,
                                                         monkeypatch):
        target = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        tracer = TraceRecorder()
        tracer.event(0.0, "k")
        env_trace_write("pt/..x", tracer)
        (written,) = list(target.iterdir())
        assert written.name == "trace-pt_..x.jsonl"
        assert written.read_text() == events_jsonl(tracer.events)


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_tracing_never_changes_a_run(strategy, plan):
    # Every hook site across the stack is armed under trace_run(); the
    # coherence history, the traffic and the kernel's clock must equal
    # the untraced run's exactly.
    def outcome():
        deployment = run_profile(
            STRATEGIES[strategy].build_policy(), PROFILES["balanced"],
            n_caches=2, seed=5, horizon=STRATEGIES[strategy].horizon,
            fault_plan=plan, request_timeout=0.5, request_retries=2,
        )
        sim = deployment.sim
        return (coherence_signature(deployment.site.trace),
                deployment.network.stats.as_dict(), sim.now,
                sim.events_fired)

    untraced = outcome()
    with trace_run() as recorder:
        traced = outcome()
    assert recorder.events
    assert traced == untraced


def _valid_records(tmp_path):
    manifest = RunManifest.in_dir(tmp_path)
    manifest.record(point_record(
        "spec-a", "p0", "ok", "miss", "serial", 0.5,
        peak_rss_kb=1000, events=10))
    manifest.record(point_record(
        "spec-a", "p1", "ok", "hit", "serial", 0.001))
    manifest.record(point_record(
        "spec-a", "p2", "failed", "miss", "serial", 0.25,
        error="boom"))
    manifest.record_run("spec-a", "serial", 1, 3, computed=2, hits=1,
                        failures=1, wall_s=0.75)
    return manifest


class TestManifest:
    def test_round_trip_and_validate(self, tmp_path):
        manifest = _valid_records(tmp_path)
        records = manifest.read()
        assert [record["rec"] for record in records] == (
            ["point"] * 3 + ["run"]
        )
        assert validate_manifest(records) == []

    def test_summarize(self, tmp_path):
        records = _valid_records(tmp_path).read()
        summary = summarize_manifest(records)
        stats = summary["specs"]["spec-a"]
        assert stats["points"] == 3
        assert stats["hits"] == 1
        assert stats["computed"] == 2
        assert stats["failed"] == 1
        assert stats["wall_total_s"] == pytest.approx(0.751)
        assert stats["wall_max_s"] == pytest.approx(0.5)
        assert stats["peak_rss_kb"] == 1000
        assert stats["events"] == 10
        assert stats["executors"] == {"serial": 3}
        assert stats["slowest"][0] == ("p0", 0.5)
        assert stats["failures"] == [{"label": "p2", "error": "boom"}]

    def test_spec_filter(self, tmp_path):
        records = _valid_records(tmp_path).read()
        assert summarize_manifest(records, spec="other")["specs"] == {}

    def test_malformed_lines_reported_with_numbers(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text('{"rec":"point"}\nnot json\n[1,2]\n')
        records = load_manifest(path)
        errors = validate_manifest(records)
        assert any(error.startswith("line 1:") for error in errors)
        assert any(error.startswith("line 2:") for error in errors)
        assert any(error.startswith("line 3:") for error in errors)

    def test_bad_status_and_bool_typed_field_rejected(self, tmp_path):
        record = point_record("s", "p", "ok", "miss", "serial", 0.1)
        record["status"] = "maybe"
        record["events"] = True
        errors = validate_manifest([record])
        assert any("bad status" in error for error in errors)
        assert any("'events'" in error for error in errors)

    def test_record_is_best_effort(self, tmp_path):
        # An unwritable manifest must never fail the sweep writing it.
        blocked = tmp_path / "file"
        blocked.write_text("")
        manifest = RunManifest(blocked / "manifest.jsonl")
        manifest.record(point_record("s", "p", "ok", "miss", "serial", 0.1))


@pytest.fixture
def swept_manifest(tmp_path):
    """A cache dir whose manifest was written by a real cached sweep."""
    spec = SweepSpec(name="obs-sweep", run_point=_value_point)
    for x in range(3):
        spec.add(f"x-{x}", x=x)
    cache_dir = tmp_path / "cache"
    run_sweep(spec, parallel=1, cache=ResultCache(cache_dir))
    run_sweep(spec, parallel=1, cache=ResultCache(cache_dir))  # all hits
    return cache_dir


class TestRunnerTelemetry:
    def test_cached_sweep_writes_manifest(self, swept_manifest):
        records = load_manifest(swept_manifest / MANIFEST_NAME)
        assert validate_manifest(records) == []
        points = [r for r in records if r["rec"] == "point"]
        runs = [r for r in records if r["rec"] == "run"]
        assert len(points) == 6 and len(runs) == 2
        assert [p["cache"] for p in points] == ["miss"] * 3 + ["hit"] * 3
        assert all(p["executor"] == "serial" for p in points)
        assert runs[0]["computed"] == 3 and runs[0]["hits"] == 0
        assert runs[1]["computed"] == 0 and runs[1]["hits"] == 3

    def test_cacheless_sweep_records_nothing(self, tmp_path):
        spec = SweepSpec(name="plain", run_point=_value_point)
        spec.add("only")
        run_sweep(spec, parallel=1)
        assert list(tmp_path.iterdir()) == []

    def test_explicit_manifest_without_cache(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        spec = SweepSpec(name="explicit", run_point=_value_point)
        spec.add("only")
        run_sweep(spec, parallel=1, manifest=manifest)
        records = manifest.read()
        assert validate_manifest(records) == []
        assert records[0]["spec"] == "explicit"

    def test_trace_env_flag_counts_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        spec = SweepSpec(name="traced", run_point=_simulated_point)
        spec.add("only")
        cache_dir = tmp_path / "cache"
        run_sweep(spec, parallel=1, cache=ResultCache(cache_dir))
        (point,) = [
            r for r in load_manifest(cache_dir / MANIFEST_NAME)
            if r["rec"] == "point"
        ]
        assert point["events"] > 0

    def test_failure_carries_elapsed_and_manifest_entry(self, tmp_path):
        spec = SweepSpec(name="failing", run_point=_failing_point)
        spec.add("bad")
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=1,
                      cache=ResultCache(tmp_path / "cache"))
        error = excinfo.value
        assert error.elapsed >= 0.0
        assert error.manifest_entry["status"] == "failed"
        assert error.manifest_entry["label"] == "bad"
        assert "ValueError" in error.manifest_entry["error"]
        assert f"after {error.elapsed:.3f}s" in str(error)

    def test_failure_entry_attached_without_manifest_too(self):
        # Manifest-less sweeps persist nothing, but the failure record
        # still rides the exception for inspection.
        spec = SweepSpec(name="failing", run_point=_failing_point)
        spec.add("bad")
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=1)
        assert excinfo.value.manifest_entry["status"] == "failed"


def _value_point(config, seed):
    return {"value": config.get("x", 1) * seed}


def _simulated_point(config, seed):
    """A point that runs a tiny simulation, so hooks have events to emit."""
    sim = Simulator(seed=seed)
    sim.schedule(0.5, lambda: None)
    sim.run_until_idle()
    return {"fired": True}


def _failing_point(config, seed):
    raise ValueError("intentional")


class TestCli:
    def test_summary_check_ok(self, swept_manifest, capsys):
        assert obs_main(["summary", "--cache-dir", str(swept_manifest),
                         "--check"]) == 0
        out = capsys.readouterr().out
        assert "sweep obs-sweep: 6 points (3 cached, 3 computed, 0 failed)" \
            in out
        assert "manifest OK (8 records)" in out

    def test_summary_spec_filter_empty(self, swept_manifest, capsys):
        assert obs_main(["summary", "--cache-dir", str(swept_manifest),
                         "--spec", "nope"]) == 0
        assert "no point records" in capsys.readouterr().out

    def test_summary_check_fails_on_malformed(self, tmp_path, capsys):
        (tmp_path / MANIFEST_NAME).write_text("not json\n")
        assert obs_main(["summary", "--cache-dir", str(tmp_path),
                         "--check"]) == 1
        assert "manifest INVALID" in capsys.readouterr().err

    def test_summary_requires_location(self, capsys):
        assert obs_main(["summary"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_summary_missing_manifest(self, tmp_path, capsys):
        assert obs_main(["summary", "--cache-dir", str(tmp_path)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_slow_lists_computed_points_only(self, swept_manifest, capsys):
        assert obs_main(["slow", "--cache-dir", str(swept_manifest),
                         "--top", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("[serial]" in line for line in lines)

    def test_trace_filters(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        tracer = TraceRecorder()
        tracer.event(0.0, "net.send", node="a", dst="b")
        tracer.event(0.1, "net.deliver", node="b", src="a")
        tracer.event(0.2, "repl.write", node="a", decision="accept")
        path.write_text(events_jsonl(tracer.events))
        assert obs_main(["trace", str(path), "--kind", "net",
                         "--node", "a"]) == 0
        captured = capsys.readouterr()
        assert "net.send" in captured.out
        assert "repl.write" not in captured.out
        assert "(1 events)" in captured.err

    def test_trace_limit_and_missing_file(self, tmp_path, capsys):
        assert obs_main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"t": 0.0, "kind": "k"}) + "\n"
            + json.dumps({"t": 1.0, "kind": "k"}) + "\n"
        )
        capsys.readouterr()
        assert obs_main(["trace", str(path), "--limit", "1"]) == 0
        assert "(1 events)" in capsys.readouterr().err
