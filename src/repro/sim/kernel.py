"""The discrete-event simulation kernel.

The kernel is a priority queue of :class:`repro.sim.events.Event` ordered by
``(virtual time, scheduling order)``.  All components of a simulated system
-- network links, replication objects, client processes -- share one kernel
and therefore one virtual clock.

The queue is one ``heapq`` list of ``(time, seq, event)`` tuples owned by
the :class:`Simulator`: ``seq`` is unique, so entries compare in C and
never reach the event, and the firing order is the ``(time, seq)`` total
order every seeded result depends on.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import tracer as _obs
from repro.sim.errors import (
    SchedulingInPastError,
    SimulationLimitExceeded,
)
from repro.sim.events import Event
from repro.sim.rng import SeededRng


#: Cyclic-GC cadence inside :meth:`Simulator.run`, in events.  The event
#: loop allocates heavily (events, futures, closures), and CPython's
#: generational collector re-scans the simulator's large live graph on
#: every threshold crossing -- ~30% of a big run's wall clock -- while
#: almost all garbage dies by refcount anyway.  The loop therefore
#: pauses automatic collection and instead collects explicitly every
#: this-many fired events, bounding the cyclic-garbage high-water mark
#: without paying per-allocation scans.  Semantically invisible: the
#: codebase defines no ``__del__`` finalizers, so collection timing can
#: never change a simulation result.
GC_EVENT_INTERVAL = 250_000


def _callable_name(fn: Callable[..., Any]) -> str:
    """A stable display name for a scheduled callable (trace detail)."""
    name = getattr(fn, "__qualname__", None)
    if name is None:
        name = getattr(fn, "__name__", None)
    return name if name is not None else type(fn).__name__


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Two
        simulations built with the same seed and the same scheduling calls
        execute identically (see :mod:`repro.sim.events`).
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: every timed component reads it per event, and the
        #: descriptor indirection is measurable at that rate.  Only the
        #: kernel writes it.
        self.now: float = 0.0
        self._seq: int = 0
        self._fired: int = 0
        self._live: int = 0  # pending non-daemon, non-cancelled events
        self.rng = SeededRng(seed)

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of events still in the queue, including cancelled ones."""
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Pending non-daemon events; a drain run ends when this hits 0."""
        return self._live

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``daemon`` marks housekeeping (periodic pulls and the like) that
        should not keep :meth:`run_until_idle` alive.
        """
        if not delay >= 0:  # also refuses NaN
            raise SchedulingInPastError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args, daemon=daemon)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if not time >= self.now:  # also refuses NaN
            raise SchedulingInPastError(
                f"cannot schedule at {time!r}; clock is already at {self.now!r}"
            )
        event = Event(time, self._seq, fn, args, daemon,
                      None if daemon else self)
        self._seq += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.event(
                self.now, "sim.schedule", at=round(time, 9),
                seq=event.seq, fn=_callable_name(fn), daemon=daemon,
            )
        if not daemon:
            self._live += 1
        heappush(self._heap, (time, event.seq, event))
        return event

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            if event.sim is not None:
                self._live -= 1
                event.sim = None  # a late cancel is a no-op
            self.now = event.time
            self._fired += 1
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.event(
                    self.now, "sim.fire",
                    seq=event.seq, fn=_callable_name(event.fn),
                )
            event.fn(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until drained, ``until`` is reached, or the budget runs out.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time; the
            clock is then advanced to ``until`` so timed assertions read a
            stable value.  With no deadline the run stops when only daemon
            events (periodic housekeeping) remain.
        max_events:
            Safety budget; exceeding it raises
            :class:`SimulationLimitExceeded` rather than hanging the caller.

        Returns
        -------
        float
            The virtual time at which the run stopped.
        """
        # Hot path: the heap and the tracer are bound to locals once per
        # run, so the (usual) tracing-disabled case pays no per-event
        # module-attribute lookups inside the loop.  Automatic cyclic GC
        # is paused for the loop's duration (see GC_EVENT_INTERVAL) and
        # restored on exit, collecting explicitly on the event cadence.
        heap = self._heap
        tracer = _obs.ACTIVE
        fired = 0
        next_gc = GC_EVENT_INTERVAL
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                event = heap[0][2]
                if event.cancelled:
                    heappop(heap)
                    continue
                if (until is None and self._live == 0) or (
                    until is not None and event.time > until
                ):
                    break
                if fired >= max_events:
                    raise SimulationLimitExceeded(
                        f"run exceeded {max_events} events at t={self.now}"
                    )
                heappop(heap)
                if event.sim is not None:
                    self._live -= 1
                    event.sim = None  # a late cancel is a no-op
                self.now = event.time
                self._fired += 1
                fired += 1
                if tracer is not None:
                    tracer.event(
                        self.now, "sim.fire",
                        seq=event.seq, fn=_callable_name(event.fn),
                    )
                event.fn(*event.args)
                if fired >= next_gc:
                    next_gc += GC_EVENT_INTERVAL
                    gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no live (non-daemon) events remain."""
        return self.run(until=None, max_events=max_events)
