"""Smoke test of the repo benchmark at ``--quick`` scale.

Black-box on purpose: everything goes through the one command
``BENCHMARK.json`` names, in subprocesses, exactly as the driver and a
person at a shell would run it.  No timing threshold is asserted except
the one the gate itself must trip on (a layer slowed five-fold).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERF = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SIM_WORKLOADS = [name for name in WORKLOADS if name.startswith("sim_")]


def _run(*args, check=True):
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=170,
    )
    if check:
        assert done.returncode == 0, done.stdout[-4000:]
    return done


def _driver(workload, trace, *extra):
    """The driver form; returns the parsed last stdout line."""
    done = _run("--workload", workload, "--seed", 7, "--seconds", 1,
                "--trace", trace, "--quick", *extra)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One traced ``--quick`` suite run: all four workloads, both modes."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    _run("--quick", "--trace", "--out", out)
    return out, json.loads(out.read_text(encoding="utf-8"))


def test_suite_emits_every_metric_and_passes_its_checks(suite):
    _, document = suite
    assert document["quick"] is True
    assert {"python", "platform", "cpu_count", "git_commit"} <= set(
        document["fingerprint"])
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for name, result in document["workloads"].items():
        assert result["correct"], (name, result["violations"])
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["params"] and result["seed"] == 7
        for entry in SPEC["end_to_end"]:
            stats = result["end_to_end"][entry["name"]]
            assert stats["unit"] == entry["unit"]
            assert stats["median"] > 0 and stats["n"] >= 1
            assert {"min", "max", "q1", "q3"} <= set(stats)
        for entry in SPEC["per_layer"]:
            metric = result["per_layer"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] >= 0


def test_layer_attribution_is_complete_and_lands_where_it_should(suite):
    _, document = suite
    layers = [entry["name"].split(".")[0] for entry in SPEC["per_layer"]
              if entry["name"].endswith(".self_share")]
    assert len(layers) == 10
    for name, result in document["workloads"].items():
        metrics = {key: value["value"]
                   for key, value in result["per_layer"].items()}
        shares = sum(metrics[f"{layer}.self_share"] for layer in layers)
        assert shares == pytest.approx(1.0, abs=0.02), name
        assert metrics["trace_overhead_ratio"] > 0
        if name in SIM_WORKLOADS:
            # Span self times must add up to the root span's duration.
            info = result["trace_info"]
            assert info["self_total_s"] == pytest.approx(
                info["traced_drive_s"], rel=0.02), name
            assert metrics["runtime.calls"] == 0
            assert metrics["runtime.frames_per_op"] == 0
            assert metrics["sim.events_per_s"] > 0
        else:
            assert metrics["runtime.self_share"] > 0
            assert metrics["runtime.frames_per_op"] > 0
            assert metrics["read_p50_ms"] > 0 and metrics["write_p50_ms"] > 0
        faulty = name == "sim_faults"
        assert (metrics["faults.calls"] > 0) == faulty, name
        assert (metrics["faults.events_applied"] > 0) == faulty, name
        assert (metrics["faults.dropped_crashed_per_op"] > 0) == faulty, name
    rungs = {
        "sim_read_heavy": ["sim.event_ns", "net.send_ns", "comm.rpc_ns",
                           "replication.read_ns"],
        "sim_write_fanout": ["net.multicast_ns_per_dst",
                             "replication.write_ns_per_replica"],
        "socket_mixed": ["runtime.codec_frame_us",
                         "runtime.wire_roundtrip_us",
                         "runtime.checkpoint_us_log0",
                         "runtime.checkpoint_us_log800",
                         "runtime.rpc_ping_us"],
    }
    for name, names in rungs.items():
        for rung in names:
            assert document["workloads"][name]["per_layer"][rung]["value"] > 0


def test_driver_line_carries_exactly_the_contract(suite):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = _driver("sim_write_fanout", trace)
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert sorted(line["metrics"]) == sorted(
            entry["name"] for entry in SPEC[section])
        units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        for name, metric in line["metrics"].items():
            assert sorted(metric) == ["unit", "value"]
            assert metric["unit"] == units[name]


def test_sim_digest_repeats_per_seed_and_moves_with_it(suite, tmp_path):
    _, document = suite
    first = document["workloads"]["sim_read_heavy"]["sim_digest"]
    again = tmp_path / "again.json"
    other = tmp_path / "other.json"
    _run("--workload", "sim_read_heavy", "--seed", 7, "--seconds", 0.2,
         "--quick", "--out", again)
    _run("--workload", "sim_read_heavy", "--seed", 8, "--seconds", 0.2,
         "--quick", "--out", other)
    assert json.loads(again.read_text())["sim_digest"] == first
    assert json.loads(other.read_text())["sim_digest"] != first


def test_slowed_layer_raises_its_share_and_trips_the_gate(suite, tmp_path):
    """ROADMAP item 1: a deliberately slowed layer trips the gate."""
    name = "sim_read_heavy"
    _, base = suite
    # 300 us of busy-wait per Network.send, ~2 sends per ~50 us op.
    parts = []
    for trace in (0, 1):
        part = tmp_path / f"slow-{trace}.json"
        _run("--workload", name, "--seed", 7, "--seconds", 1, "--quick",
             "--trace", trace, "--slow", "net.send=300", "--out", part)
        parts.append(json.loads(part.read_text(encoding="utf-8")))
    slow = dict(parts[0], per_layer=parts[1]["per_layer"])
    before = base["workloads"][name]["per_layer"]["net.self_share"]["value"]
    after = slow["per_layer"]["net.self_share"]["value"]
    assert after > before + 0.2
    # Simulated outcomes are untouched: only host time moved.
    assert slow["sim_digest"] == base["workloads"][name]["sim_digest"]

    def suite_file(label, result):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(dict(base, workloads={name: result})))
        return str(path)

    base_file = suite_file("base", base["workloads"][name])
    gate = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), base_file,
         suite_file("slow", slow)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert gate.returncode != 0, gate.stdout
    assert any("ops_per_s" in line and "REGRESSION" in line
               for line in gate.stdout.splitlines()), gate.stdout
    # ... and the same result against itself passes.
    same = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), base_file, base_file],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout


def test_quick_results_are_refused_as_recorded_numbers():
    done = _run("--quick", "--out", PERF / "baseline.json", check=False)
    assert done.returncode != 0
    assert "baseline" in done.stdout
    recorded = json.loads((PERF / "baseline.json").read_text("utf-8"))
    assert recorded["quick"] is False


def test_no_node_process_or_run_directory_survives(suite):
    """socket_mixed hygiene: nodes reaped, hub run dirs removed."""
    out_dir = str(PERF / "out")
    leaked = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        if "repro.runtime.node" in cmdline and out_dir in cmdline:
            leaked.append((entry, cmdline))
    assert not leaked
    assert not [name for name in os.listdir(out_dir)
                if name.startswith(("hub-", "ladder-", "part-"))]
