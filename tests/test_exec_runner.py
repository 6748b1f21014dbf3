"""Tests for the parallel sweep-execution subsystem (``repro.exec``).

The point functions live at module level because worker processes import
them by reference -- the same constraint real experiment point functions
are under.
"""

import pytest

from repro.exec import (
    ResultCache,
    SweepPoint,
    SweepPointError,
    SweepSpec,
    run_sweep,
)


def square_point(config, seed):
    return {"value": config["x"] * config["x"], "seed": seed}


def logging_point(config, seed):
    """Appends one line per execution, so recomputation is observable."""
    with open(config["log"], "a") as handle:
        handle.write(f"{config['x']}\n")
    return config["x"] * 2


def failing_point(config, seed):
    if config["x"] == 3:
        raise ValueError("boom on three")
    return config["x"]


def logging_point_v2(config, seed):
    """Same shape as logging_point but different source: a 'code edit'."""
    with open(config["log"], "a") as handle:
        handle.write(f"{config['x']}\n")
    return config["x"] * 200


def _square_spec(n=5, base_seed=0):
    spec = SweepSpec(name="squares", run_point=square_point,
                     base_seed=base_seed)
    for x in range(n):
        spec.add(f"x={x}", x=x)
    return spec


def _executions(log_path):
    try:
        return sorted(log_path.read_text().splitlines())
    except FileNotFoundError:
        return []


class TestExecution:
    def test_serial_results_in_declaration_order(self):
        spec = _square_spec()
        results = run_sweep(spec, parallel=1)
        assert list(results) == spec.labels()
        assert results["x=3"]["value"] == 9

    def test_parallel_matches_serial_exactly(self):
        serial = run_sweep(_square_spec(), parallel=1)
        parallel = run_sweep(_square_spec(), parallel=4)
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_points_get_distinct_deterministic_seeds(self):
        spec = _square_spec()
        results = run_sweep(spec, parallel=2)
        seeds = [result["seed"] for result in results.values()]
        assert len(set(seeds)) == len(seeds)
        expected = [spec.seed_for(point) for point in spec.points]
        assert seeds == expected

    def test_base_seed_changes_every_point_seed(self):
        a = run_sweep(_square_spec(base_seed=0), parallel=1)
        b = run_sweep(_square_spec(base_seed=1), parallel=1)
        assert all(a[k]["seed"] != b[k]["seed"] for k in a)

    def test_parallel_zero_means_cpu_count(self):
        results = run_sweep(_square_spec(n=3), parallel=0)
        assert results["x=2"]["value"] == 4

    def test_negative_parallel_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_square_spec(n=1), parallel=-1)

    def test_unserializable_config_rejected_at_declaration(self):
        with pytest.raises(TypeError):
            SweepPoint("bad", {"fn": object()})

    def test_paired_spec_gives_every_point_the_same_seed(self):
        spec = SweepSpec(name="paired", run_point=square_point, paired=True)
        for x in range(4):
            spec.add(f"x={x}", x=x)
        results = run_sweep(spec, parallel=2)
        seeds = {result["seed"] for result in results.values()}
        assert len(seeds) == 1

    def test_duplicate_label_rejected_at_declaration(self):
        spec = SweepSpec(name="dup", run_point=square_point)
        spec.add("same", x=1)
        with pytest.raises(ValueError):
            spec.add("same", x=2)

    def test_duplicate_label_rejected_by_runner(self):
        spec = SweepSpec(name="dup", run_point=square_point)
        spec.points = [SweepPoint("same", {"x": 1}),
                       SweepPoint("same", {"x": 2})]
        with pytest.raises(ValueError):
            run_sweep(spec, parallel=1)


class TestFailures:
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_worker_exception_surfaces_failing_point(self, parallel):
        spec = SweepSpec(name="fragile", run_point=failing_point)
        for x in (1, 2, 3, 4):
            spec.add(f"x={x}", x=x)
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=parallel)
        error = excinfo.value
        assert error.spec_name == "fragile"
        assert error.label == "x=3"
        assert error.config == {"x": 3}
        assert "boom on three" in str(error)
        assert "ValueError" in error.detail

    @pytest.mark.parametrize(
        "parallel, executor", [(1, "serial"), (2, "distributed")],
        ids=["serial", "distributed"],
    )
    def test_failure_message_names_executor_and_label(
            self, parallel, executor):
        spec = SweepSpec(name="fragile", run_point=failing_point)
        for x in (1, 2, 3):
            spec.add(f"x={x}", x=x)
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(spec, parallel=parallel)
        error = excinfo.value
        assert error.executor == executor
        assert repr(executor) in str(error)
        assert repr("x=3") in str(error)


class TestCache:
    def _logging_spec(self, log_path, xs=(1, 2, 3)):
        spec = SweepSpec(name="logged", run_point=logging_point)
        for x in xs:
            spec.add(f"x={x}", x=x, log=str(log_path))
        return spec

    def test_cache_hit_skips_recomputation(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        first = run_sweep(self._logging_spec(log), parallel=1,
                          cache_dir=cache_dir)
        assert _executions(log) == ["1", "2", "3"]
        second = run_sweep(self._logging_spec(log), parallel=1,
                           cache_dir=cache_dir)
        assert _executions(log) == ["1", "2", "3"], "cache hits recomputed"
        assert second == first

    def test_new_points_compute_cached_points_do_not(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        run_sweep(self._logging_spec(log, xs=(1, 2)), parallel=1,
                  cache_dir=cache_dir)
        run_sweep(self._logging_spec(log, xs=(1, 2, 9)), parallel=1,
                  cache_dir=cache_dir)
        assert _executions(log) == ["1", "2", "9"]

    def test_cache_counts_hits_and_misses(self, tmp_path):
        log = tmp_path / "runs.log"
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._logging_spec(log), parallel=1, cache=cache)
        assert (cache.hits, cache.misses, cache.writes) == (0, 3, 3)
        run_sweep(self._logging_spec(log), parallel=1, cache=cache)
        assert (cache.hits, cache.misses, cache.writes) == (3, 3, 3)

    def test_different_base_seed_is_a_different_cache_entry(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        spec = self._logging_spec(log, xs=(1,))
        run_sweep(spec, parallel=1, cache_dir=cache_dir)
        reseeded = self._logging_spec(log, xs=(1,))
        reseeded.base_seed = 7
        run_sweep(reseeded, parallel=1, cache_dir=cache_dir)
        assert _executions(log) == ["1", "1"]

    def test_code_fingerprint_partitions_the_cache(self, tmp_path):
        log = tmp_path / "runs.log"
        old_code = ResultCache(tmp_path / "cache", fingerprint="aaaa")
        new_code = ResultCache(tmp_path / "cache", fingerprint="bbbb")
        run_sweep(self._logging_spec(log), parallel=1, cache=old_code)
        run_sweep(self._logging_spec(log), parallel=1, cache=new_code)
        assert _executions(log) == ["1", "1", "2", "2", "3", "3"]

    def test_toggling_paired_mode_is_a_different_cache_entry(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        run_sweep(self._logging_spec(log, xs=(1,)), parallel=1,
                  cache_dir=cache_dir)
        paired = self._logging_spec(log, xs=(1,))
        paired.paired = True
        run_sweep(paired, parallel=1, cache_dir=cache_dir)
        assert _executions(log) == ["1", "1"], (
            "a result computed under per-point seeding was served for "
            "the paired seed"
        )

    def test_changing_the_point_function_invalidates_entries(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        run_sweep(self._logging_spec(log, xs=(1,)), parallel=1,
                  cache_dir=cache_dir)
        edited = SweepSpec(name="logged", run_point=logging_point_v2)
        edited.add("x=1", x=1, log=str(log))
        result = run_sweep(edited, parallel=1, cache_dir=cache_dir)
        assert result == {"x=1": 200}, "stale result served after code edit"
        assert _executions(log) == ["1", "1"]

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        log = tmp_path / "runs.log"
        cache = ResultCache(tmp_path / "cache")
        spec = self._logging_spec(log, xs=(1,))
        run_sweep(spec, parallel=1, cache=cache)
        entries = list((tmp_path / "cache").rglob("*.res"))
        assert entries, "no codec entries written"
        for entry in entries:
            entry.write_bytes(b"not a codec payload")
        result = run_sweep(self._logging_spec(log, xs=(1,)), parallel=1,
                           cache=cache)
        assert result == {"x=1": 2}
        assert _executions(log) == ["1", "1"]


class TestParallelWithCache:
    def test_parallel_populates_cache_serial_reads_it(self, tmp_path):
        log = tmp_path / "runs.log"
        cache_dir = tmp_path / "cache"
        spec = SweepSpec(name="logged", run_point=logging_point)
        for x in (1, 2, 3, 4):
            spec.add(f"x={x}", x=x, log=str(log))
        parallel = run_sweep(spec, parallel=4, cache_dir=cache_dir)
        again = SweepSpec(name="logged", run_point=logging_point)
        for x in (1, 2, 3, 4):
            again.add(f"x={x}", x=x, log=str(log))
        serial = run_sweep(again, parallel=1, cache_dir=cache_dir)
        assert serial == parallel
        assert _executions(log) == ["1", "2", "3", "4"]
