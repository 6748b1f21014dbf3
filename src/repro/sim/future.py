"""One-shot futures for simulated asynchronous results.

A :class:`Future` is the rendezvous point between callback-style kernel code
(message deliveries, timers) and generator-style :class:`repro.sim.process.
Process` code (client workloads, protocol state machines).
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.sim.errors import SimulationError


class FutureCancelled(SimulationError):
    """Raised when waiting on a future that was cancelled."""


class Future:
    """A single-assignment result container.

    Unlike ``asyncio.Future`` there is no event loop affinity: callbacks run
    synchronously when the result is set, in registration order, which keeps
    the simulation deterministic.  ``done`` (a result or error is set) is
    a plain attribute, read-only outside this class.
    """

    __slots__ = ("done", "_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self.done = False
        self._value: Any = None
        self._error: BaseException | None = None
        self._callbacks: List[Callable[["Future"], None]] = []

    def result(self) -> Any:
        """Return the value, re-raising the stored error if one was set."""
        if not self.done:
            raise SimulationError("future is not resolved yet")
        if self._error is not None:
            raise self._error
        return self._value

    def set_result(self, value: Any = None) -> None:
        """Resolve the future and run its callbacks synchronously."""
        if self.done:
            raise SimulationError("future already resolved")
        # Publish the value before the done flag: the live backend polls
        # ``done`` from another thread and must never observe a resolved
        # future whose value is still the placeholder.
        self._value = value
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def set_error(self, error: BaseException) -> None:
        """Fail the future and run its callbacks synchronously."""
        if self.done:
            raise SimulationError("future already resolved")
        self._error = error
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def cancel(self) -> None:
        """Fail the future with :class:`FutureCancelled` if still pending."""
        if not self.done:
            self.set_error(FutureCancelled("future cancelled"))

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Register ``fn(self)`` to run at resolution (or now, if resolved)."""
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)
