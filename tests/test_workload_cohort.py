"""Cohort workloads: weighted accounting, expansion, and block draws."""

import functools

import pytest

from repro.coherence.trace import ReadEvent, coherence_signature
from repro.metrics.faults import unavailable_read_fraction
from repro.metrics.staleness import staleness_summary
from repro.replication.policy import ReplicationPolicy
from repro.sim.process import Process
from repro.sim.rng import SeededRng, zipf_cumulative
from repro.workload.cohort import cohort_sizes
from repro.workload.generator import ReaderWorkload, ZipfPagePicker
from repro.workload.profiles import WorkloadProfile, run_profile
from repro.workload.scenarios import build_tree

PROFILE = WorkloadProfile(
    name="cohort-test",
    writes=4,
    reads_per_client=5,
    write_interval=1.0,
    read_think=0.5,
)


def cohort_run(cohort_size, **kwargs):
    return run_profile(
        ReplicationPolicy.conference_example(),
        PROFILE,
        n_caches=2,
        seed=11,
        n_readers_per_cache=6,
        cohort_size=cohort_size,
        **kwargs,
    )


class TestCohortSizes:
    def test_exact_division(self):
        assert cohort_sizes(12, 4) == [4, 4, 4]

    def test_remainder_goes_last(self):
        assert cohort_sizes(10, 4) == [4, 4, 2]

    def test_degenerate_cases(self):
        assert cohort_sizes(0, 4) == []
        assert cohort_sizes(3, 10) == [3]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cohort_sizes(-1, 4)
        with pytest.raises(ValueError):
            cohort_sizes(4, 0)


class TestWeightedAccounting:
    def test_weighted_reads_match_population(self):
        deployment = cohort_run(cohort_size=3)
        population = 12
        assert sum(deployment.cohorts.values()) == population
        summary = staleness_summary(deployment.site.trace)
        assert summary.reads == population * PROFILE.reads_per_client
        clients = [
            b.bound.replication for b in deployment.browsers.values()
        ]
        issued = sum(c.reads_issued for c in clients)
        # Master's reads are zero in this profile; every reader read
        # counts once per represented client.
        assert issued == population * PROFILE.reads_per_client
        assert unavailable_read_fraction(clients) == 0.0

    def test_read_events_carry_cohort_weight(self):
        deployment = cohort_run(cohort_size=3)
        reads = deployment.site.trace.of_type(ReadEvent)
        assert reads and all(event.weight == 3 for event in reads)

    def test_signature_extends_tuple_only_for_weighted_reads(self):
        deployment = cohort_run(cohort_size=3)
        signature = coherence_signature(deployment.site.trace)
        cohort_lanes = [
            lane for name, lane in signature.items()
            if name.startswith("client:cohort-")
        ]
        assert cohort_lanes
        weighted = [
            entry for lane in cohort_lanes for entry in lane
            if entry[0] == "read"
        ]
        assert weighted and all(entry[-1] == 3 for entry in weighted)

    def test_per_client_build_has_no_cohorts(self):
        deployment = cohort_run(cohort_size=1)
        assert deployment.cohorts == {}
        reads = deployment.site.trace.of_type(ReadEvent)
        assert reads and all(event.weight == 1 for event in reads)


def crashed_cohort_run(expand):
    """One cohort of six reading at a cache that is down from 1.0 to 2.5 s."""
    deployment = build_tree(
        ReplicationPolicy.conference_example(),
        n_caches=1,
        n_readers_per_cache=6,
        cohort_size=6,
        request_timeout=0.5,
        seed=3,
    )
    sim = deployment.sim
    reader = ReaderWorkload(
        deployment.browsers["cohort-0-0"],
        pages=["index.html"],
        rng=sim.rng.fork("reader"),
        weight=6,
        operations=20,
        mean_think=0.2,
        expand=(
            functools.partial(deployment.expand_cohort, "cohort-0-0")
            if expand else None
        ),
    )
    sim.schedule_at(1.0, deployment.network.crash_node, "cache-0")
    sim.schedule_at(2.5, deployment.network.restart_node, "cache-0")
    Process(sim, reader.run(), name="cohort")
    sim.run_until_idle()
    return deployment, reader


class TestExpansion:
    def test_cohort_expands_on_fault_divergence(self):
        # The crash makes one batched read time out, which is exactly
        # the divergence that must split a cohort: that round is charged
        # to all six members, every later round is six weight-1 reads.
        deployment, reader = crashed_cohort_run(expand=True)
        member_ids = [f"cohort-0-0.{k}" for k in range(6)]
        assert [m.client_id for m in reader.members] == member_ids
        assert all(name in deployment.browsers for name in member_ids)
        weights = [
            event.weight for event in deployment.site.trace.of_type(ReadEvent)
        ]
        batched, single = weights.count(6), weights.count(1)
        assert batched and single
        assert weights == [6] * batched + [1] * single
        issued = {
            name: browser.bound.replication.reads_issued
            for name, browser in deployment.browsers.items()
        }
        # Exactly one shared round failed, and it was the cohort's last.
        assert issued["cohort-0-0"] == 6 * (batched + 1)
        assert sum(issued.values()) == 120
        assert reader.stats.operations == 120
        member_failures = sum(issued[name] for name in member_ids) - single
        assert reader.stats.errors == 6 + member_failures
        assert reader.stats.not_found == 0

    def test_cohort_without_expand_keeps_batching(self):
        deployment, reader = crashed_cohort_run(expand=False)
        assert reader.members is None
        assert sorted(deployment.browsers) == ["cohort-0-0", "master"]
        weights = [
            event.weight for event in deployment.site.trace.of_type(ReadEvent)
        ]
        # Every failure is charged at full weight.
        assert weights and set(weights) == {6}
        assert reader.stats.operations == 120
        assert reader.stats.errors == 120 - 6 * len(weights) > 6

    def test_expand_cohort_binds_members(self):
        deployment = cohort_run(cohort_size=4)
        cohort_id = next(iter(deployment.cohorts))
        members = deployment.expand_cohort(cohort_id)
        assert len(members) == deployment.cohorts[cohort_id]
        for member in members:
            assert member.client_id in deployment.browsers

    def test_workload_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            ReaderWorkload(
                browser=None, pages=["p"], rng=SeededRng(0), weight=0
            )


class TestVectorizedDraws:
    def test_exponential_block_matches_single_draws(self):
        a, b = SeededRng(5), SeededRng(5)
        block = a.exponential_block(0.7, 50)
        singles = [b.exponential(0.7) for _ in range(50)]
        assert block == singles

    def test_pick_block_matches_single_picks(self):
        pages = [f"p{i}" for i in range(17)]
        a = ZipfPagePicker(pages, SeededRng(9), skew=0.8)
        b = ZipfPagePicker(pages, SeededRng(9), skew=0.8)
        assert a.pick_block(64) == [b.pick() for _ in range(64)]

    def test_bisect_pick_matches_linear_weighted_index(self):
        pages = [f"p{i}" for i in range(23)]
        picker = ZipfPagePicker(pages, SeededRng(3))
        legacy_rng = SeededRng(3)
        weights = SeededRng.zipf_weights(len(pages), 1.0)
        picks = picker.pick_block(200)
        legacy = [
            pages[legacy_rng.weighted_index(weights)] for _ in range(200)
        ]
        assert picks == legacy

    def test_zipf_weights_are_memoized(self):
        first = zipf_cumulative(101, 1.3)
        assert zipf_cumulative(101, 1.3) is first
        weights = SeededRng.zipf_weights(101, 1.3)
        weights[0] = 99.0  # a caller mutating its copy ...
        assert SeededRng.zipf_weights(101, 1.3)[0] != 99.0  # ... is isolated

    def test_cumulative_matches_weights_accumulation(self):
        weights = SeededRng.zipf_weights(12, 1.0)
        cumulative = zipf_cumulative(12, 1.0)
        running = 0.0
        for weight, total in zip(weights, cumulative):
            running += weight
            assert running == total  # identical left-to-right accumulation

    def test_reader_stream_unchanged_by_epoch_batching(self):
        # The reader draws think times and picks from independent
        # streams; whatever the epoch size, a given seed produces the
        # historical sequence (this is what keeps sweeps cache-valid).
        rng = SeededRng(21)
        reader = ReaderWorkload(
            browser=None, pages=["a", "b", "c"], rng=rng, operations=7
        )
        gen = reader.run()
        delay = gen.send(None)
        legacy = SeededRng(21)
        legacy_picker = ZipfPagePicker(["a", "b", "c"], legacy.fork("pages"))
        assert delay.seconds == legacy.exponential(1.0)
