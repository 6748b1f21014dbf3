"""Scheduled events.

Events order by ``(time, seq)``.  The sequence number is assigned by the
kernel in scheduling order, so simultaneous events run in the order they
were scheduled.  A multicast's batched arrival takes its first recipient's
``seq`` (ARCHITECTURE.md, simulation core, shows the order is unchanged).

:class:`Event` is a ``__slots__`` class, not a dataclass: one instance is
created per scheduled callback, so construction cost and attribute-access
cost are on the simulator's per-event hot path.  The kernel does not
compare events directly -- it keys its heap by explicit ``(time, seq, event)``
tuples (see :mod:`repro.sim.kernel`), which compare in C and, ``seq`` being
unique, never reach the event.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A callback scheduled at a point in virtual time.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code only holds them to call :meth:`cancel`.

    ``daemon`` events (periodic pulls, housekeeping) do not keep a
    drain-the-queue run alive: :meth:`repro.sim.kernel.Simulator.run` with
    no deadline stops once only daemon events remain.

    ``sim`` is the simulator while the event is live (queued, not daemon)
    and ``None`` otherwise; :meth:`cancel` decrements its live count.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "daemon", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        daemon: bool = False,
        sim: Any = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self.sim = sim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag for flag, on in (("c", self.cancelled), ("d", self.daemon))
            if on
        )
        return (f"Event(t={self.time!r}, seq={self.seq}"
                f"{', ' + flags if flags else ''})")

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op;
        this mirrors the semantics of ``threading.Timer.cancel`` and keeps
        protocol teardown paths simple.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._live -= 1
                self.sim = None
