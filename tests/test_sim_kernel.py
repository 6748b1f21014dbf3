"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.kernel import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "latest")
    sim.run_until_idle()
    assert fired == ["early", "late", "latest"]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, label)
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.schedule(1.0, fired.append, "yes")
    event.cancel()
    sim.run_until_idle()
    assert fired == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()
    assert sim.live_pending == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_and_time_rejected():
    # NaN compares false both ways: a ``delay < 0`` guard let it in, and
    # the event then fired mid-queue with ``sim.now`` reading nan.
    sim = Simulator()
    for at in (0.5, 2.5, 3.0, 5.0):
        sim.schedule_at(at, lambda: None)
    with pytest.raises(SchedulingInPastError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SchedulingInPastError):
        sim.schedule_at(float("nan"), lambda: None)
    seen = []
    sim.schedule(4.0, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [4.0]
    assert sim.now == 5.0
    assert sim.pending == 0


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SchedulingInPastError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_event_budget_enforced():
    sim = Simulator()

    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.1, forever)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(max_events=100)


def test_daemon_events_do_not_block_idle():
    sim = Simulator()
    fired = []

    def heartbeat():
        fired.append(sim.now)
        sim.schedule(1.0, heartbeat, daemon=True)

    sim.schedule(1.0, heartbeat, daemon=True)
    sim.schedule(2.5, fired.append, "work")
    sim.run_until_idle()
    # The run ends once the only remaining events are daemons.
    assert "work" in fired
    assert sim.now == 2.5


def test_daemon_events_fire_under_deadline_runs():
    sim = Simulator()
    ticks = []

    def heartbeat():
        ticks.append(sim.now)
        sim.schedule(1.0, heartbeat, daemon=True)

    sim.schedule(1.0, heartbeat, daemon=True)
    sim.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]


def test_determinism_same_seed_same_draws():
    values_a = [Simulator(seed=9).rng.random() for _ in range(1)]
    values_b = [Simulator(seed=9).rng.random() for _ in range(1)]
    assert values_a == values_b


def test_step_returns_false_on_empty_queue():
    assert Simulator().step() is False


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_fired == 3


def test_pending_counts_queued_events():
    sim = Simulator()
    assert sim.pending == 0
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.step()
    assert sim.pending == 1


def test_earlier_event_scheduled_after_deadline_segment_fires_first():
    # run(until=...) inspects the head without removing it; an event
    # scheduled afterwards at an earlier time must still fire first.
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == [] and sim.pending == 1
    sim.schedule(1.0, fired.append, "early")  # t=2.0, ahead of the head
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_interleaved_schedule_and_step_keep_global_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, 3.0)
    sim.schedule_at(1.0, fired.append, 1.0)
    assert sim.step()
    assert fired == [1.0]
    # New events land after the clock, as the kernel guarantees, but on
    # both sides of the event still queued.
    sim.schedule_at(2.0, fired.append, 2.0)
    sim.schedule_at(10.0, fired.append, 10.0)
    while sim.step():
        pass
    assert fired == [1.0, 2.0, 3.0, 10.0]


@pytest.mark.parametrize("drain", ["run", "step"])
def test_cancelling_a_fired_event_does_not_touch_the_live_count(drain):
    # The kernel already took a fired event off live_pending; a late
    # cancel() must not take it off again, or an idle run stops one live
    # event early.
    sim = Simulator()
    fired = []
    timer = sim.schedule_at(1.0, fired.append, "timer")
    sim.schedule_at(2.0, timer.cancel)
    sim.schedule_at(3.0, fired.append, "three")
    sim.schedule_at(4.0, fired.append, "four")
    if drain == "run":
        sim.run_until_idle()
    else:
        while sim.live_pending > 0 and sim.step():
            pass
    assert fired == ["timer", "three", "four"]
    assert sim.now == 4.0
    assert sim.live_pending == 0
    assert sim.pending == 0


def test_event_cancelling_itself_while_firing_is_a_noop():
    sim = Simulator()
    handle = []
    handle.append(sim.schedule(1.0, lambda: handle[0].cancel()))
    sim.schedule(2.0, lambda: None)
    sim.run_until_idle()
    assert sim.now == 2.0
    assert sim.live_pending == 0


# -- kernel vs. model ---------------------------------------------------------
#
# The oracle is the simplest thing that can be right: every scheduled
# entry is appended to one list in scheduling (seq) order, and the next
# event to fire is the first live entry of a *stable* sort of that list
# by time -- the (time, seq) total order with no heap anywhere.

#: One scripted action: (delay, daemon, cancel_index, nested_delay,
#: late_cancel_index).  ``cancel_index`` cancels an earlier action's
#: event right after scheduling (out of range = no cancel);
#: ``nested_delay`` schedules a follow-up from inside the callback
#: (push while popping); ``late_cancel_index`` cancels an event from
#: inside the callback -- by then the target may be pending, already
#: cancelled, or already fired.
actions = st.lists(
    st.tuples(
        st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.integers(0, 40),
        st.one_of(st.none(), st.floats(0.0, 2.0, allow_nan=False)),
        st.one_of(st.none(), st.integers(0, 40)),
    ),
    min_size=1,
    max_size=40,
)


def drive_kernel(script, until, stepwise):
    """Run one script on the kernel; return its firing log and state."""
    sim = Simulator(seed=0)
    log = []
    events = []

    def fire(label, nested_delay, late_cancel):
        log.append((sim.now, label))
        if nested_delay is not None:
            events.append(
                sim.schedule(nested_delay, fire, f"{label}+n", None, None)
            )
        if late_cancel is not None and late_cancel < len(events):
            events[late_cancel].cancel()

    for index, (delay, daemon, cancel, nested, late) in enumerate(script):
        events.append(
            sim.schedule(delay, fire, f"e{index}", nested, late,
                         daemon=daemon)
        )
        if cancel < len(events):
            events[cancel].cancel()
    if until is not None:
        sim.run(until=until)
    if stepwise:
        while sim.live_pending > 0 and sim.step():
            pass
    else:
        sim.run_until_idle()
    fired_labels = {label for _, label in log}
    stranded = [
        event.args[0] for event in events
        if not event.daemon and not event.cancelled
        and event.args[0] not in fired_labels
    ]
    return {
        "log": log,
        "now": sim.now,
        "fired": sim.events_fired,
        "live": sim.live_pending,
        "stranded": stranded,
    }


def drive_model(script, until):
    """The same script on the sorted-list model."""
    entries = []  # in seq order: [time, label, daemon, nested, late, state]
    log = []
    now = 0.0

    def cancel(index):
        if index < len(entries) and entries[index][5] == "pending":
            entries[index][5] = "cancelled"

    def run(deadline):
        nonlocal now
        while True:
            queue = [
                entry for entry in sorted(entries, key=lambda e: e[0])
                if entry[5] == "pending"
            ]
            if not queue:
                break
            if deadline is None:
                if all(entry[2] for entry in queue):
                    break  # only daemons left
            elif queue[0][0] > deadline:
                break
            entry = queue[0]
            entry[5] = "fired"
            now, label, _, nested, late, _ = entry
            log.append((now, label))
            if nested is not None:
                entries.append(
                    [now + nested, f"{label}+n", False, None, None, "pending"]
                )
            if late is not None:
                cancel(late)
        if deadline is not None and now < deadline:
            now = deadline

    for index, (delay, daemon, early, nested, late) in enumerate(script):
        entries.append([delay, f"e{index}", daemon, nested, late, "pending"])
        cancel(early)
    if until is not None:
        run(until)
    run(None)
    return {"log": log, "now": now, "fired": len(log), "live": 0,
            "stranded": []}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=actions,
       until=st.one_of(st.none(), st.floats(0.0, 6.0)),
       stepwise=st.booleans())
@example(  # cancel-after-fire: e1 (t=2) cancels e0, which fired at t=1
    script=[(1.0, False, 40, None, None), (2.0, False, 40, None, 0),
            (3.0, False, 40, None, None)],
    until=None, stepwise=False,
)
def test_kernel_fires_the_models_order(script, until, stepwise):
    assert drive_kernel(script, until, stepwise) == drive_model(script, until)
