"""Unit tests for generator-based processes and futures."""

import weakref

import pytest

from repro.sim.errors import SimulationError
from repro.sim.future import Future, FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Delay, Process, ProcessKilled, WaitFor


def test_delay_suspends_for_virtual_time():
    sim = Simulator()
    times = []

    def body():
        times.append(sim.now)
        yield Delay(2.0)
        times.append(sim.now)
        yield Delay(3.0)
        times.append(sim.now)

    Process(sim, body())
    sim.run_until_idle()
    assert times == [0.0, 2.0, 5.0]


def test_wait_for_receives_future_value():
    sim = Simulator()
    future = Future()
    got = []

    def body():
        value = yield WaitFor(future)
        got.append(value)

    Process(sim, body())
    sim.schedule(1.0, future.set_result, "payload")
    sim.run_until_idle()
    assert got == ["payload"]


def test_bare_future_yield_is_waitfor_shorthand():
    sim = Simulator()
    future = Future()
    got = []

    def body():
        got.append((yield future))

    Process(sim, body())
    sim.schedule(0.5, future.set_result, 7)
    sim.run_until_idle()
    assert got == [7]


def test_future_error_raises_inside_generator():
    sim = Simulator()
    future = Future()
    caught = []

    def body():
        try:
            yield WaitFor(future)
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, body())
    sim.schedule(0.5, future.set_error, ValueError("boom"))
    sim.run_until_idle()
    assert caught == ["boom"]


def test_process_return_value_resolves_done_future():
    sim = Simulator()

    def body():
        yield Delay(1.0)
        return "result"

    process = Process(sim, body())
    sim.run_until_idle()
    assert process.done.result() == "result"
    assert not process.alive


def test_kill_interrupts_process():
    sim = Simulator()
    progress = []

    def body():
        progress.append("started")
        yield Delay(10.0)
        progress.append("never")

    process = Process(sim, body())
    sim.run(until=1.0)
    process.kill()
    sim.run_until_idle()
    assert progress == ["started"]
    assert not process.alive
    with pytest.raises(ProcessKilled):
        process.done.result()


def test_unsupported_yield_value_errors_the_process():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield 42
        except SimulationError:
            caught.append("caught")
            raise

    process = Process(sim, body())
    sim.run_until_idle()
    assert caught == ["caught"]
    with pytest.raises(SimulationError):
        process.done.result()


def test_uncaught_exception_surfaces_via_done_future():
    sim = Simulator()

    def body():
        yield Delay(1.0)
        raise RuntimeError("workload bug")

    process = Process(sim, body())
    sim.run_until_idle()
    with pytest.raises(RuntimeError, match="workload bug"):
        process.done.result()


def test_already_resolved_future_resumes_immediately():
    sim = Simulator()
    future = Future()
    future.set_result("ready")
    got = []

    def body():
        got.append((yield WaitFor(future)))

    Process(sim, body())
    sim.run_until_idle()
    assert got == ["ready"]


def test_processes_created_at_one_instant_start_in_creation_order():
    sim = Simulator()
    started = []

    def body(name):
        started.append((name, sim.now))
        yield Delay(1.0)

    sim.schedule(0.0, started.append, ("event", 0.0))
    for name in "abc":
        Process(sim, body(name), name)
    assert started == []  # the first step is scheduled, never inline
    sim.run_until_idle()
    # After the event already due at this instant, then in creation order.
    assert started == [("event", 0.0), ("a", 0.0), ("b", 0.0), ("c", 0.0)]


def test_long_run_of_resolved_futures_does_not_recurse():
    # Each already-resolved future used to resume the generator one frame
    # deeper; ~200 in a row raised RecursionError out of the kernel.
    sim = Simulator()
    n = 10_000
    values = []
    for i in range(n):
        future = Future()
        future.set_result(i)
        values.append(future)
    failed = Future()
    failed.set_error(ValueError("boom"))
    seen = []

    def body():
        for i, future in enumerate(values):
            seen.append((yield WaitFor(future) if i % 2 else future))
        try:
            yield WaitFor(failed)
        except ValueError as exc:
            seen.append(str(exc))
        return "finished"

    process = Process(sim, body())
    sim.run_until_idle()
    assert seen == list(range(n)) + ["boom"]
    assert process.done.result() == "finished"
    assert not process.alive


@pytest.mark.parametrize("seconds", [-1.0, float("nan")])
def test_negative_or_nan_delay_fails_only_its_process(seconds):
    sim = Simulator()
    finished = []

    def bad():
        yield Delay(seconds)

    def good():
        yield Delay(1.0)
        finished.append(sim.now)

    failing = Process(sim, bad())
    Process(sim, good())
    sim.run_until_idle()
    assert not failing.alive
    with pytest.raises(ValueError):
        failing.done.result()
    assert finished == [1.0]


class TestFuture:
    def test_double_resolve_rejected(self):
        future = Future()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_result_before_resolution_rejected(self):
        with pytest.raises(SimulationError):
            Future().result()

    def test_cancel_pending_future(self):
        future = Future()
        future.cancel()
        with pytest.raises(FutureCancelled):
            future.result()

    def test_cancel_resolved_future_is_noop(self):
        future = Future()
        future.set_result("kept")
        future.cancel()
        assert future.result() == "kept"

    def test_callbacks_run_in_registration_order(self):
        future = Future()
        order = []
        future.add_callback(lambda f: order.append(1))
        future.add_callback(lambda f: order.append(2))
        future.set_result(None)
        assert order == [1, 2]

    def test_callback_after_resolution_runs_immediately(self):
        future = Future()
        future.set_result("x")
        seen = []
        future.add_callback(lambda f: seen.append(f.result()))
        assert seen == ["x"]


def _ended(how):
    """A process ended by ``how``, and a weak reference to its generator."""
    sim = Simulator()

    def body():
        yield Delay(1.0)
        if how == "raise":
            raise RuntimeError("workload bug")
        yield Delay(10.0)

    generator = body()
    ref = weakref.ref(generator)
    process = Process(sim, generator)
    del generator
    if how == "kill":
        sim.run(until=2.0)
        process.kill()
    sim.run_until_idle()
    return process, ref


@pytest.mark.parametrize("how", ["return", "raise", "kill"])
def test_an_ended_process_drops_its_generator(how):
    process, ref = _ended(how)
    assert not process.alive and process.done.done
    assert process._generator is None
    if how != "raise":  # else the done future's traceback holds its frame
        assert ref() is None
    process.kill()  # a no-op once ended
