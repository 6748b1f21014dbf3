"""Unit and property tests for the seeded RNG."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.future import Future
from repro.sim.process import Delay
from repro.sim.rng import SeededRng
from repro.workload.generator import EPOCH, ReaderWorkload, ZipfPagePicker


def test_same_seed_same_stream():
    a = SeededRng(7)
    b = SeededRng(7)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_seeds_differ():
    a = [SeededRng(1).random() for _ in range(5)]
    b = [SeededRng(2).random() for _ in range(5)]
    assert a != b


def test_fork_is_deterministic():
    parent_a = SeededRng(3)
    parent_b = SeededRng(3)
    assert parent_a.fork("x").random() == parent_b.fork("x").random()


def test_forks_are_independent_streams():
    parent = SeededRng(3)
    child = parent.fork("child")
    before = child.random()
    # Draw more from the parent; the child's next value is unaffected by
    # re-deriving an identical child from an identical parent.
    parent2 = SeededRng(3)
    child2 = parent2.fork("child")
    assert child2.random() == before


def test_fork_labels_distinguish_children():
    parent = SeededRng(3)
    a = parent.fork("a")
    parent2 = SeededRng(3)
    b = parent2.fork("b")
    assert a.random() != b.random()


def test_exponential_requires_positive_mean():
    with pytest.raises(ValueError):
        SeededRng(0).exponential(0)


def test_exponential_mean_roughly_right():
    rng = SeededRng(42)
    samples = [rng.exponential(2.0) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 1.8 < mean < 2.2


def test_bernoulli_bounds():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)
    assert rng.bernoulli(1.0) is True
    assert rng.bernoulli(0.0) is False


def test_zipf_weights_normalized_and_decreasing():
    weights = SeededRng.zipf_weights(10, 1.0)
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(weights[i] > weights[i + 1] for i in range(9))


def test_zipf_rank_zero_most_popular():
    rng = SeededRng(5)
    weights = SeededRng.zipf_weights(5, 1.0)
    counts = [0] * 5
    for _ in range(3000):
        counts[rng.weighted_index(weights)] += 1
    assert counts[0] == max(counts)


def test_weighted_index_empty_rejected():
    with pytest.raises(ValueError):
        SeededRng(0).weighted_index([])


@given(st.integers(min_value=1, max_value=50), st.floats(0.1, 3.0))
def test_zipf_weights_properties(n, s):
    weights = SeededRng.zipf_weights(n, s)
    assert len(weights) == n
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(w > 0 for w in weights)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                max_size=20), st.integers(0, 2**31 - 1))
def test_weighted_index_in_range(weights, seed):
    index = SeededRng(seed).weighted_index(weights)
    assert 0 <= index < len(weights)


def test_sample_and_shuffle_deterministic():
    a, b = SeededRng(9), SeededRng(9)
    items = list(range(20))
    assert a.sample(items, 5) == b.sample(items, 5)
    la, lb = list(items), list(items)
    a.shuffle(la)
    b.shuffle(lb)
    assert la == lb


def test_lazy_materialization_matches_eager_random():
    # The MT state is built on first draw, not at construction; the
    # stream must equal a random.Random seeded identically.
    rng = SeededRng(1234)
    assert rng._random is None  # nothing materialized yet
    reference = random.Random(1234)
    assert rng.random() == reference.random()
    assert rng.uniform(0, 10) == reference.uniform(0, 10)
    assert rng.randint(0, 99) == reference.randint(0, 99)


def test_fork_does_not_materialize_parent():
    parent = SeededRng(7)
    children = [parent.fork(f"c{i}") for i in range(5)]
    assert parent._random is None
    assert all(child._random is None for child in children)
    # Forking never consumed parent draws: the stream starts fresh.
    assert parent.random() == random.Random(7).random()


# -- release ----------------------------------------------------------------

#: One call of every draw, as (name, args).
DRAWS = [
    ("random", ()), ("uniform", (0.0, 1.0)), ("randint", (0, 9)),
    ("choice", (["a", "b"],)), ("shuffle", ([1, 2, 3],)),
    ("sample", ([1, 2, 3], 2)), ("exponential", (1.0,)),
    ("exponential_block", (1.0, 4)), ("bernoulli", (0.5,)),
    ("weighted_index", ([1.0, 2.0],)),
]


def test_draws_before_release_equal_an_unreleased_twin():
    released, twin = SeededRng(11), SeededRng(11)
    before = [released.random(), released.exponential_block(0.5, 8)]
    released.release()
    assert before == [twin.random(), twin.exponential_block(0.5, 8)]
    assert released._random is False


@pytest.mark.parametrize("name,args", DRAWS, ids=[name for name, _ in DRAWS])
def test_every_draw_after_release_raises(name, args):
    rng = SeededRng(11)
    rng.random()
    rng.release()
    with pytest.raises(RuntimeError, match="released"):
        getattr(rng, name)(*args)


def test_fork_still_works_after_release():
    released, twin = SeededRng(5), SeededRng(5)
    released.fork("a")
    twin.fork("a")
    released.random()
    released.release()
    child = released.fork("b")
    assert child.seed == twin.fork("b").seed
    assert child.random() == random.Random(child.seed).random()


def test_releasing_a_stream_that_never_drew():
    rng = SeededRng(3)
    rng.release()
    rng.release()  # idempotent
    with pytest.raises(RuntimeError):
        rng.random()
    assert rng.fork("x").seed == SeededRng(3).fork("x").seed


class RecordingBrowser:
    """Records each page read; the workload is driven by hand."""

    def __init__(self):
        self.pages = []

    def read_page(self, page, weight=1):
        self.pages.append(page)
        return Future()


def test_reader_releases_both_streams_after_its_last_block():
    pages = [f"p{i}" for i in range(9)]
    browser = RecordingBrowser()
    reader = ReaderWorkload(browser, pages=pages, rng=SeededRng(21),
                            operations=300, mean_think=0.4)
    assert reader.operations > EPOCH
    streams = (reader.rng, reader.picker.rng)
    thinks = []
    run = reader.run()
    step = next(run)
    while True:
        if isinstance(step, Delay):
            thinks.append(step.seconds)
            # The second (last) block is drawn just before delay 257.
            released = [stream._random is False for stream in streams]
            assert released == [len(thinks) > EPOCH] * 2
        try:
            step = run.send(None)
        except StopIteration:
            break
    twin = SeededRng(21)
    twin_picker = ZipfPagePicker(pages, twin.fork("pages"))
    expected = [(twin.exponential(0.4), twin_picker.pick())
                for _ in range(300)]
    assert list(zip(thinks, browser.pages)) == expected
    for stream in streams:
        with pytest.raises(RuntimeError):
            stream.random()
