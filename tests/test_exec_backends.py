"""Tests for the two sweep execution paths (``repro.exec.backends``).

Point functions live at module level because worker processes import
them by reference.  The parity tests are the tentpole guarantee: how a
sweep's points are fanned out is pure mechanism, so results and cache
entries are bit-identical in process and through the hub.
"""

import hashlib
import json
import multiprocessing
import os
import threading
from pathlib import Path

import pytest

from repro.exec import (
    DistributedExecutor,
    ResultCache,
    SweepPointError,
    SweepSpec,
    default_parallelism,
    encode_result,
    run_sweep,
)
from repro.exec import distributed
from repro.exec.backends import _pool_context
from repro.obs.manifest import load_manifest

GOLDEN = Path(__file__).parent / "golden" / "exec_executor_signature.json"

#: ``parallel`` -> the path name manifests and errors carry for it.
PATHS = {1: "serial", 2: "distributed"}


def trace_point(config, seed):
    """A deterministic pseudo-trace: the large-artifact payload shape.

    Built from exact binary fractions of the derived seed, so the bytes
    are identical on every platform and on both execution paths.
    """
    count = config["count"]
    base = seed % (1 << 20)
    return {
        "label": config["tag"],
        "samples": [(base + i) / 16.0 for i in range(count)],
        "versions": [(base + i) % 97 for i in range(count)],
        "records": [
            {"node": f"cache-{i % 5}", "version": i, "applied": True}
            for i in range(count // 8)
        ],
        "summary": {"count": count, "seed": seed, "mean": base / 16.0},
    }


def pid_point(config, seed):
    return os.getpid()


def failing_point(config, seed):
    raise RuntimeError(f"point {config['tag']} exploded")


def unencodable_point(config, seed):
    # A payload even the codec's pickle fallback cannot serialize.
    return {"handle": open("/dev/null")}


def oversize_point(config, seed):
    """One point's result is too large for a single wire frame."""
    if config["tag"] == "huge":
        return bytes(65 * 1024 * 1024)
    return config["tag"]


def _trace_spec():
    spec = SweepSpec(name="executor-parity", run_point=trace_point)
    for tag in ("alpha", "beta", "gamma", "delta"):
        spec.add(tag, tag=tag, count=64)
    return spec


def _tagged_spec(name, run_point, tags):
    spec = SweepSpec(name=name, run_point=run_point)
    for tag in tags:
        spec.add(tag, tag=tag)
    return spec


def _signature(results):
    blob = encode_result([[label, results[label]] for label in results])
    return hashlib.sha256(blob).hexdigest()


def _result_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in Path(root).rglob("*.res")
    }


class TestResolution:
    """The worker count is the only thing that picks the path."""

    def test_default_is_serial_for_one_worker(self, tmp_path):
        spec = _tagged_spec("pids", pid_point, ("a", "b", "c"))
        measured = run_sweep(spec, parallel=1, cache_dir=tmp_path)
        assert set(measured.values()) == {os.getpid()}
        records = load_manifest(tmp_path / "manifest.jsonl")
        assert {r["executor"] for r in records} == {"serial"}

    def test_more_workers_are_forked_and_served_by_the_hub(self, tmp_path):
        spec = _tagged_spec("pids", pid_point, ("a", "b", "c"))
        measured = run_sweep(spec, parallel=2, cache_dir=tmp_path)
        assert os.getpid() not in measured.values()
        records = load_manifest(tmp_path / "manifest.jsonl")
        assert {r["executor"] for r in records} == {"distributed"}
        assert {r["worker"] for r in records if r["rec"] == "point"} \
            <= {"w0", "w1"}

    def test_one_pending_point_needs_no_workers(self):
        spec = _tagged_spec("pids", pid_point, ("only",))
        assert run_sweep(spec, parallel=4) == {"only": os.getpid()}

    def test_explicit_instance_passes_through(self):
        # The handle seam: the instance serves the sweep, at whatever
        # worker count ``parallel`` says -- here a hub with one worker.
        hub = DistributedExecutor()
        spec = _tagged_spec("pids", pid_point, ("a", "b"))
        measured = run_sweep(spec, parallel=1, executor=hub)
        assert len(set(measured.values())) == 1
        assert os.getpid() not in measured.values()
        assert hub.stats.wire_bytes > hub.stats.payload_bytes > 0


class TestParallelismDefaults:
    def test_default_parallelism_clamps_to_task_count(self):
        assert default_parallelism(task_count=1) == 1
        assert default_parallelism(task_count=0) == 1
        cpus = default_parallelism()
        assert default_parallelism(task_count=10_000) == cpus
        assert cpus >= 1

    def test_pool_context_prefers_fork_then_falls_back(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "fork"])
        assert _pool_context().get_start_method() == "fork"
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert _pool_context().get_start_method() == "spawn"


class TestWorkerStart:
    def test_forced_spawn_still_completes_a_sweep(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        golden = json.loads(GOLDEN.read_text())
        measured = run_sweep(_trace_spec(), parallel=2)
        assert _signature(measured) == golden["signature"]

    def test_start_failure_falls_back_in_process(self, monkeypatch, capsys):
        class NoFork:
            @staticmethod
            def get_start_method():
                return "fork"

            @staticmethod
            def Process(*args, **kwargs):
                raise OSError("fork: operation not permitted")

        monkeypatch.setattr(distributed, "_pool_context", NoFork)
        spec = _tagged_spec("pids", pid_point, ("a", "b", "c"))
        measured = run_sweep(spec, parallel=2)
        assert set(measured.values()) == {os.getpid()}
        notice = capsys.readouterr().err
        assert notice.count("sweep workers unavailable") == 1
        assert "operation not permitted" in notice


class TestExecutorParity:
    def test_results_and_cache_entries_bit_identical(self, tmp_path):
        results = {}
        trees = {}
        for parallel, name in PATHS.items():
            cache = ResultCache(tmp_path / name, fingerprint="pinned")
            results[name] = run_sweep(_trace_spec(), parallel=parallel,
                                      cache=cache)
            trees[name] = _result_tree(tmp_path / name)
            records = load_manifest(tmp_path / name / "manifest.jsonl")
            assert {r["executor"] for r in records} == {name}
        assert results["distributed"] == results["serial"]
        assert list(results["distributed"]) == list(results["serial"])
        # Same cache keys (paths) and the same bytes under them.
        assert trees["distributed"] == trees["serial"]
        assert len(trees["serial"]) == len(_trace_spec().points)

    def test_golden_signature_pinned(self):
        golden = json.loads(GOLDEN.read_text())
        for parallel, name in PATHS.items():
            measured = run_sweep(_trace_spec(), parallel=parallel)
            assert _signature(measured) == golden["signature"], (
                f"the {name!r} path diverged from the golden sweep "
                "signature"
            )

    def test_hub_bytes_reach_the_cache_without_reencoding(
            self, tmp_path, monkeypatch):
        # The worker's digest-checked codec bytes are what lands on
        # disk: nothing on the hub side encodes a result again.
        def refuse(*args, **kwargs):
            raise AssertionError("a hub result was re-encoded")

        monkeypatch.setattr(ResultCache, "put", refuse)
        cache = ResultCache(tmp_path, fingerprint="pinned")
        run_sweep(_trace_spec(), parallel=2, cache=cache)
        assert cache.writes == len(_trace_spec().points)


class TestFailurePaths:
    @pytest.mark.parametrize("parallel", PATHS, ids=list(PATHS.values()))
    def test_failures_travel_the_pipe_as_data(self, parallel):
        spec = _tagged_spec("fragile", failing_point, ("boom", "bang"))
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=parallel)
        assert excinfo.value.label == "boom"
        assert excinfo.value.executor == PATHS[parallel]
        assert "exploded" in excinfo.value.detail

    def test_unencodable_payload_is_an_attributable_failure(self):
        # Encoding happens in the worker; an unserializable payload must
        # come back as a SweepPointError naming the point, not as a bare
        # pickling error that takes the worker down.
        spec = _tagged_spec("unencodable", unencodable_point,
                            ("bad", "worse"))
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=2)
        assert excinfo.value.label == "bad"
        assert excinfo.value.executor == "distributed"
        assert "pickle" in excinfo.value.detail.lower()

    def test_oversize_result_fails_its_point_not_the_sweep(self, tmp_path):
        # A result too large for one wire frame used to leave the hub
        # waiting forever on a worker that kept heartbeating.
        spec = _tagged_spec("oversize", oversize_point,
                            ("small", "huge", "tiny"))
        cache = ResultCache(tmp_path, fingerprint="pinned")
        outcome = {}

        def drive():
            try:
                run_sweep(spec, parallel=2, cache=cache)
            except BaseException as exc:  # surfaces in the main thread
                outcome["error"] = exc

        sweep = threading.Thread(target=drive, daemon=True)
        sweep.start()
        sweep.join(timeout=60.0)
        assert not sweep.is_alive(), "oversize result hung the sweep"
        error = outcome.get("error")
        assert isinstance(error, SweepPointError), error
        assert error.label == "huge"
        assert "bytes does not fit one wire frame" in error.detail
        assert f"the limit is {64 * 1024 * 1024}" in error.detail
        # The worker kept serving: the other points reached the cache.
        assert len(_result_tree(tmp_path)) == 2
