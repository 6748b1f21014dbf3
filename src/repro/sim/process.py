"""Generator-based processes, on any clock.

Protocol state machines are naturally callback-driven, but client workloads
read better as straight-line code.  A :class:`Process` wraps a generator that
may yield:

- :class:`Delay` -- suspend for a stretch of clock time (virtual on the
  simulator, wall-clock on a :class:`~repro.runtime.live.LiveLoop`);
- :class:`WaitFor` -- suspend until a :class:`repro.sim.future.Future`
  resolves (its value is sent back into the generator; its error is raised
  inside the generator);
- a bare :class:`~repro.sim.future.Future` -- shorthand for ``WaitFor``.

Example
-------
>>> def client(sim):
...     yield Delay(1.0)
...     reply = yield WaitFor(some_rpc())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.future import Future

if TYPE_CHECKING:
    from repro.transport.interface import Clock


class ProcessKilled(SimulationError):
    """Injected into a generator when its process is killed."""


class Delay:
    """Yielded by a process to sleep for ``seconds`` of clock time.

    A bare ``__slots__`` class (one is created per workload step, so
    construction cost matters); treat instances as immutable.  Negative or
    NaN ``seconds`` raise ``ValueError`` in the generator: one process fails.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if not seconds >= 0:  # also refuses NaN
            raise ValueError(f"Delay needs seconds >= 0, not {seconds!r}")
        self.seconds = seconds

    def __repr__(self) -> str:
        return f"Delay({self.seconds!r})"


class WaitFor:
    """Yielded by a process to wait for a future's resolution.

    Same hot-path construction story as :class:`Delay`.
    """

    __slots__ = ("future",)

    def __init__(self, future: Future) -> None:
        self.future = future

    def __repr__(self) -> str:
        return f"WaitFor({self.future!r})"


class Process:
    """Drives a generator through a :class:`~repro.transport.interface.Clock`.

    Every step runs as a callback of ``clock``: on the simulator that is
    the event loop, on a ``LiveLoop`` the dispatcher thread, so the
    generator always issues its operations from the protocol thread
    (call :meth:`kill` there too: on a ``LiveLoop``, via ``submit``).
    The first step is scheduled at zero delay, so all processes created
    at one instant begin in creation order.  A process that has ended
    (returned, raised or been killed) drops its generator.

    Yields dispatch on their exact type.  A pending future gets the one
    bound :meth:`_resume` as its callback; a resolved one is fed back into
    the generator in the same frame.
    """

    def __init__(
        self,
        clock: Clock,
        generator: Generator[Any, Any, Any],
        name: str = "process",
    ) -> None:
        self.clock = clock
        self.name = name
        self.done = Future()
        self._generator: Optional[Generator[Any, Any, Any]] = generator
        self._alive = True
        clock.schedule(0.0, self._advance, None, None)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished or been killed."""
        return self._alive

    def kill(self) -> None:
        """Throw :class:`ProcessKilled` into the generator.

        A process may catch it to clean up; the process still terminates.
        """
        if not self._alive:
            return
        self._alive = False
        try:
            self._generator.throw(ProcessKilled(f"{self.name} killed"))
        except (ProcessKilled, StopIteration):
            pass
        finally:
            self._generator.close()
            self._generator = None
            if not self.done.done:
                self.done.set_error(ProcessKilled(f"{self.name} killed"))

    def _resume(self, future: Future) -> None:
        """An awaited future resolved: send its value or throw its error."""
        self._advance(future._value, future._error)

    def _advance(self, value: Any, error: Optional[BaseException]) -> None:
        generator = self._generator
        while self._alive:
            try:
                yielded = (generator.send(value) if error is None
                           else generator.throw(error))
            except StopIteration as stop:
                self._alive = False
                self._generator = None
                self.done.set_result(stop.value)
                return
            except BaseException as exc:
                # An uncaught exception terminates the process, not the
                # kernel; it surfaces through the process's done future.
                self._alive = False
                self._generator = None
                if not self.done.done:
                    self.done.set_error(
                        ProcessKilled(f"{self.name} killed")
                        if isinstance(exc, ProcessKilled) else exc)
                return
            kind = type(yielded)
            if kind is Delay:
                self.clock.schedule(yielded.seconds, self._advance, None,
                                    None)
                return
            if kind is WaitFor:
                yielded = yielded.future
            elif kind is not Future:
                value, error = None, SimulationError(
                    f"{self.name} yielded unsupported value {yielded!r}")
                continue
            if not yielded.done:
                yielded.add_callback(self._resume)
                return
            value, error = yielded._value, yielded._error
