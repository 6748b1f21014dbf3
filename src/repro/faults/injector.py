"""Execute a fault plan against a clock and a faultable transport.

The :class:`FaultInjector` is the one piece of code that turns the
declarative :class:`~repro.faults.plan.FaultPlan` into calls on the
:class:`~repro.faults.transport.FaultableTransportMixin` control surface.  It
supports two driving modes:

- **timed** (:meth:`start`): every event is scheduled on the
  :class:`~repro.transport.interface.Clock` at its plan time, so the
  same plan unfolds in virtual seconds under the simulator and in real
  seconds under the live loop.  Events are scheduled non-daemon: a run
  that drains to idle always sees its heals fire, so a partition can
  never leak past the end of a sweep point.
- **stepped** (:meth:`step`): the next event applies immediately,
  ignoring its timestamp.  Convergence-gated parity scripts use this to
  pin the interleaving of faults and workload exactly, which is what
  makes the sim/live coherence signatures comparable (experiment X12).

Either way the injector records what it applied and when
(:attr:`applied`), and derives the measurement inputs of the
partition-aware metrics (:mod:`repro.metrics.faults`):
:meth:`cut_windows` (per-partition intervals with their sides, driving
staleness-under-partition) and :meth:`recovery_marks` (heal/restart
times, driving recovery lag).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.faults.plan import (
    CrashNode,
    FaultEvent,
    FaultPlan,
    Heal,
    LossBurst,
    Partition,
    RestartNode,
)
from repro.obs import tracer as _obs


class FaultInjector:
    """Applies one :class:`FaultPlan` to one clock/transport pair."""

    def __init__(self, clock: Any, transport: Any, plan: FaultPlan) -> None:
        self.clock = clock
        self.transport = transport
        self.plan = plan
        self._events = plan.sorted_events()
        self._cursor = 0
        self._handles: List[Any] = []
        self._started = False
        #: Applied events as ``(clock time, event)``, in application order.
        self.applied: List[Tuple[float, FaultEvent]] = []

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        """Schedule every event at its plan time, relative to now.

        Idempotent; events already applied via :meth:`step` are not
        rescheduled.
        """
        if self._started:
            return
        self._started = True
        base = self.clock.now
        for event in self._events[self._cursor:]:
            delay = max(0.0, base + event.at - self.clock.now)
            self._handles.append(
                self.clock.schedule(delay, self._apply_scheduled, event)
            )
        self._cursor = len(self._events)

    def step(self) -> Optional[FaultEvent]:
        """Apply the next pending event immediately; ``None`` when done.

        Stepping ignores event timestamps (they order the plan, nothing
        more) and must run on the protocol thread -- route through
        ``Backend.call`` from harness code.
        """
        if self._started:
            raise RuntimeError("cannot step() an injector after start()")
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._cursor += 1
        self._apply(event)
        return event

    def cancel(self) -> None:
        """Cancel every not-yet-fired scheduled event."""
        for handle in self._handles:
            handle.cancel()
        self._handles = []

    @property
    def exhausted(self) -> bool:
        """Whether every plan event has been applied or scheduled."""
        return self._cursor >= len(self._events)

    # -- application -----------------------------------------------------------

    def _apply_scheduled(self, event: FaultEvent) -> None:
        self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        transport = self.transport
        if isinstance(event, Partition):
            transport.partition(event.side_a, event.side_b)
        elif isinstance(event, Heal):
            if event.partial:
                transport.heal(event.side_a, event.side_b)
            else:
                transport.heal()
        elif isinstance(event, LossBurst):
            previous = transport.loss_rate
            transport.set_loss_rate(event.loss_rate)
            self._handles.append(
                self.clock.schedule(
                    event.duration, transport.set_loss_rate, previous
                )
            )
        elif isinstance(event, CrashNode):
            transport.crash_node(event.node)
        elif isinstance(event, RestartNode):
            transport.restart_node(event.node)
        else:  # pragma: no cover - plans validate event types at build
            raise TypeError(f"unknown fault event {event!r}")
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.event(
                self.clock.now, "fault.apply",
                fault=type(event).__name__, detail=str(event),
            )
        self.applied.append((self.clock.now, event))

    # -- measurement windows ---------------------------------------------------

    def cut_windows(
        self, until: float
    ) -> List[Tuple[float, float, Tuple[frozenset, frozenset]]]:
        """Per applied partition: ``(start, end, (side_a, side_b))``.

        A cut still open at ``until`` is clipped there.  Partial heals
        close the matching cut (orientation-insensitive); a full heal
        closes all open cuts.
        """
        open_cuts: List[Tuple[float, Tuple[frozenset, frozenset]]] = []
        windows: List[Tuple[float, float, Tuple[frozenset, frozenset]]] = []
        for time, event in self.applied:
            if isinstance(event, Partition):
                sides = (frozenset(event.side_a), frozenset(event.side_b))
                open_cuts.append((time, sides))
            elif isinstance(event, Heal):
                if not event.partial:
                    windows.extend(
                        (start, time, sides) for start, sides in open_cuts
                    )
                    open_cuts = []
                    continue
                healed = (frozenset(event.side_a), frozenset(event.side_b))
                for index, (start, sides) in enumerate(open_cuts):
                    if sides in (healed, (healed[1], healed[0])):
                        windows.append((start, time, sides))
                        del open_cuts[index]
                        break
        windows.extend(
            (start, max(start, until), sides) for start, sides in open_cuts
        )
        return sorted(windows)

    def recovery_marks(self) -> List[float]:
        """Times at which connectivity was restored (heals and restarts).

        These are the reference points the recovery-lag metric measures
        from: after each mark, how long until every replica covered the
        writes acknowledged before it?
        """
        return [
            time
            for time, event in self.applied
            if isinstance(event, (Heal, RestartNode))
        ]
