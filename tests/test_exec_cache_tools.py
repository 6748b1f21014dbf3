"""Tests for cache maintenance and the codec-backed cache store."""

import argparse
import pickle

from repro.exec import (
    ResultCache,
    SweepSpec,
    add_exec_arguments,
    apply_cache_maintenance,
    cached_point_labels,
    encode_result,
    run_sweep,
)


def fabricate(root, fingerprint, name="spec", payload=b"x",
              filename="entry.res"):
    tree = root / fingerprint / name
    tree.mkdir(parents=True, exist_ok=True)
    (tree / filename).write_bytes(payload)


class TestEviction:
    def test_evict_stale_keeps_current_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        fabricate(tmp_path, cache.fingerprint)
        fabricate(tmp_path, "deadbeefdeadbeef")
        fabricate(tmp_path, "0123456789abcdef")
        assert cache.evict_stale() == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            cache.fingerprint
        ]
        # Idempotent.
        assert cache.evict_stale() == 0

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        fabricate(tmp_path, cache.fingerprint)
        fabricate(tmp_path, "deadbeefdeadbeef")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []
        assert cache.clear() == 0

    def test_missing_root_is_harmless(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.evict_stale() == 0
        assert cache.clear() == 0


def identity_point(config, seed):
    return config["payload"]


class TestCodecBackedCache:
    #: A payload of every plain shape: scalars, sequences, nesting.
    PAYLOAD = {
        "samples": [0.25 * i for i in range(64)],
        "counts": list(range(32)),
        "nested": {"label": ("a", 1, 2.5), "flag": True, "none": None},
        "big": 1 << 80,
        "text": "χ² ≤ ∞",
    }

    def test_round_trip_equality_through_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("spec", 0, {"payload": self.PAYLOAD}, self.PAYLOAD)
        hit, value = cache.get("spec", 0, {"payload": self.PAYLOAD})
        assert hit
        assert value == self.PAYLOAD
        assert type(value["nested"]["label"]) is tuple
        assert list(value) == list(self.PAYLOAD), "dict order not preserved"

    def test_entries_are_encoded_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("spec", 0, {}, {"x": 1.0})
        (entry,) = tmp_path.rglob("*.res")
        assert entry.read_bytes() == encode_result({"x": 1.0})
        assert not list(tmp_path.rglob("*.pkl"))

    def test_old_codec_entry_is_a_miss(self, tmp_path):
        # An entry written at the right path but in the retired
        # hand-written format must be recomputed, never served as a hit.
        cache = ResultCache(tmp_path)
        cache.put("spec", 0, {"payload": 1}, 1)
        (entry,) = tmp_path.rglob("*.res")
        entry.write_bytes(b"RXC1i" + (1).to_bytes(8, "big"))
        hit, value = cache.get("spec", 0, {"payload": 1})
        assert not hit and value is None

    def test_stale_fingerprint_eviction_sweeps_old_format_trees(
            self, tmp_path):
        # Old-format (.pkl) entries always live under a rotated
        # fingerprint -- the format change edited the repro sources --
        # so evict_stale removes them wholesale.
        cache = ResultCache(tmp_path)
        fabricate(tmp_path, "0ldc0de0ldc0de00",
                  payload=pickle.dumps({"legacy": True}),
                  filename="entry.pkl")
        fabricate(tmp_path, cache.fingerprint)
        assert cache.evict_stale() == 1
        assert not list(tmp_path.rglob("*.pkl"))
        assert list(tmp_path.rglob("*.res"))

    def test_iteration_api_ignores_old_format_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("spec", 0, {}, {"x": 1})
        fabricate(tmp_path, cache.fingerprint, name="legacy",
                  payload=b"old", filename="entry.pkl")
        assert cache.spec_names() == ["spec"]
        assert all(path.suffix == ".res"
                   for _, path in cache.iter_entries())

    def test_cached_point_labels_is_a_pure_existence_probe(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = SweepSpec(name="probe", run_point=identity_point)
        for tag in ("a", "b", "c"):
            spec.add(tag, payload=tag)
        run_sweep(spec, parallel=1, cache=cache)
        counters = (cache.hits, cache.misses, cache.writes)
        probe = SweepSpec(name="probe", run_point=identity_point)
        for tag in ("a", "b", "c", "d"):
            probe.add(tag, payload=tag)
        assert cached_point_labels(probe, cache) == ["a", "b", "c"]
        assert (cache.hits, cache.misses, cache.writes) == counters, (
            "the existence probe moved hit/miss counters"
        )


class TestCliMaintenance:
    def parse(self, argv):
        parser = argparse.ArgumentParser()
        add_exec_arguments(parser)
        return parser.parse_args(argv)

    def test_no_cache_dir_no_maintenance(self):
        assert apply_cache_maintenance(self.parse([])) is None

    def test_cache_clear_without_cache_dir_warns(self):
        summary = apply_cache_maintenance(self.parse(["--cache-clear"]))
        assert "no effect" in summary

    def test_stale_eviction_is_automatic(self, tmp_path):
        fabricate(tmp_path, "deadbeefdeadbeef")
        summary = apply_cache_maintenance(
            self.parse(["--cache-dir", str(tmp_path)])
        )
        assert "stale" in summary
        assert list(tmp_path.iterdir()) == []

    def test_cache_clear_wipes_all(self, tmp_path):
        cache = ResultCache(tmp_path)
        fabricate(tmp_path, cache.fingerprint)
        summary = apply_cache_maintenance(
            self.parse(["--cache-dir", str(tmp_path), "--cache-clear"])
        )
        assert "cleared" in summary
        assert list(tmp_path.iterdir()) == []
