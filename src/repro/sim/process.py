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
    construction cost matters); treat instances as immutable.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
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
    at one instant begin in creation order.
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
        self._generator = generator
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
            if not self.done.done:
                self.done.set_error(ProcessKilled(f"{self.name} killed"))

    def _advance(self, value: Any, error: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if error is not None:
                yielded = self._generator.throw(error)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self._alive = False
            self.done.set_result(stop.value)
            return
        except ProcessKilled:
            self._alive = False
            if not self.done.done:
                self.done.set_error(ProcessKilled(f"{self.name} killed"))
            return
        except BaseException as exc:
            # An uncaught exception terminates the process, not the kernel;
            # it surfaces through the process's done future.
            self._alive = False
            if not self.done.done:
                self.done.set_error(exc)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Delay):
            self.clock.schedule(yielded.seconds, self._advance, None, None)
        elif isinstance(yielded, WaitFor):
            self._wait(yielded.future)
        elif isinstance(yielded, Future):
            self._wait(yielded)
        else:
            self._advance(
                None,
                SimulationError(
                    f"{self.name} yielded unsupported value {yielded!r}"
                ),
            )

    def _wait(self, future: Future) -> None:
        def resume(resolved: Future) -> None:
            try:
                value = resolved.result()
            except BaseException as exc:  # re-inject into the generator
                self._advance(None, exc)
            else:
                self._advance(value, None)

        future.add_callback(resume)
