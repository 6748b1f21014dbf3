"""Tests for workload generation, the name service and hierarchy views."""

import pytest

from repro.naming.service import NameService, UnknownObject
from repro.replication.policy import ReplicationPolicy
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.stores.hierarchy import describe_hierarchy
from repro.workload.generator import (
    ReaderWorkload,
    WriterWorkload,
    ZipfPagePicker,
)
from repro.workload.scenarios import build_tree, conference_deployment


def drive(sim, workloads):
    """Run each workload as a process until the simulation quiesces."""
    for index, workload in enumerate(workloads):
        Process(sim, workload.run(), name=f"workload-{index}")
    sim.run()


class TestNameService:
    def test_register_resolve(self):
        ns = NameService()
        ns.register("obj", "server")
        ns.register("obj", "mirror")
        assert ns.resolve("obj") == ["server", "mirror"]

    def test_register_idempotent(self):
        ns = NameService()
        ns.register("obj", "server")
        ns.register("obj", "server")
        assert ns.resolve("obj") == ["server"]

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            NameService().resolve("ghost")

    def test_unregister(self):
        ns = NameService()
        ns.register("obj", "a")
        ns.unregister("obj", "a")
        with pytest.raises(UnknownObject):
            ns.resolve("obj")


class TestZipfPicker:
    def test_empty_pages_rejected(self):
        with pytest.raises(ValueError):
            ZipfPagePicker([], SeededRng(1))

    def test_rank_zero_most_popular(self):
        picker = ZipfPagePicker([f"p{i}" for i in range(5)], SeededRng(2))
        counts = {}
        for _ in range(2000):
            page = picker.pick()
            counts[page] = counts.get(page, 0) + 1
        assert max(counts, key=counts.get) == "p0"


class TestWorkloads:
    def test_reader_workload_runs_to_completion(self):
        deployment = build_tree(ReplicationPolicy(), n_caches=1, seed=4)
        reader = ReaderWorkload(
            deployment.browsers["reader-0-0"],
            pages=["index.html"],
            rng=deployment.sim.rng.fork("t"),
            mean_think=0.1,
            operations=5,
        )
        drive(deployment.sim, [reader])
        assert reader.stats.operations == 5
        assert reader.stats.errors == 0

    def test_reader_counts_not_found(self):
        deployment = build_tree(ReplicationPolicy(), n_caches=1, seed=4)
        reader = ReaderWorkload(
            deployment.browsers["reader-0-0"],
            pages=["ghost.html"],
            rng=deployment.sim.rng.fork("t"),
            mean_think=0.1,
            operations=3,
        )
        drive(deployment.sim, [reader])
        assert reader.stats.not_found == 3

    def test_writer_workload_incremental(self):
        deployment = build_tree(ReplicationPolicy(), n_caches=1, seed=4)
        writer = WriterWorkload(
            deployment.browsers["master"],
            pages=["index.html"],
            rng=deployment.sim.rng.fork("w"),
            interval=0.1,
            operations=4,
            incremental=True,
        )
        drive(deployment.sim, [writer])
        assert deployment.server.version() == {"master": 4}

    def test_same_seed_same_trace(self):
        def run(seed):
            deployment = build_tree(ReplicationPolicy(), n_caches=1, seed=seed)
            writer = WriterWorkload(
                deployment.browsers["master"], pages=["index.html"],
                rng=deployment.sim.rng.fork("w"), interval=0.5, operations=3,
            )
            drive(deployment.sim, [writer])
            return [
                (type(e).__name__, getattr(e, "store", None), e.time)
                for e in deployment.site.trace.events
            ]

        assert run(9) == run(9)
        assert run(9) != run(10)


class TestScenarios:
    def test_build_tree_shape(self):
        deployment = build_tree(ReplicationPolicy(), n_mirrors=2, n_caches=4,
                                n_readers_per_cache=2, seed=1)
        assert len(deployment.mirrors) == 2
        assert len(deployment.caches) == 4
        # master + 8 readers
        assert len(deployment.browsers) == 9
        # Caches hang under mirrors round-robin.
        assert deployment.caches[0].engine.parent == "mirror-0"
        assert deployment.caches[1].engine.parent == "mirror-1"

    def test_build_tree_names_only_the_heap_scheduler(self):
        # Callers may still name the kernel's one queue; any other name
        # is an error, never silently the heap.
        deployment = build_tree(ReplicationPolicy(), seed=1, scheduler="heap")
        assert len(deployment.caches) == 2
        with pytest.raises(ValueError, match="ladder"):
            build_tree(ReplicationPolicy(), seed=1, scheduler="ladder")

    def test_conference_deployment_matches_fig3(self):
        deployment = conference_deployment(seed=1)
        assert deployment.server.address == "server"
        assert len(deployment.caches) == 2
        assert set(deployment.browsers) == {"master", "user"}
        master = deployment.browsers["master"]
        assert master.bound.replication.write_store == "server"
        assert master.bound.replication.read_store == "cache-0"


class TestHierarchyView:
    def test_describe_groups_stores_by_layer(self):
        deployment = build_tree(ReplicationPolicy(), n_mirrors=1, n_caches=1,
                                seed=2)
        view = describe_hierarchy(deployment.site.dso)
        from repro.core.interfaces import Role
        assert [i.address for i in view.layer(Role.PERMANENT)] == ["server"]
