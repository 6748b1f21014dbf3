"""Client stubs.

Binding to a distributed shared object places a local object in the client's
address space and returns a :class:`Stub`.  The stub is deliberately thin:
it marshals method calls into invocation messages and hands them to the
control object, exactly as the paper describes ("clients only translate
method calls to messages").  All coherence intelligence -- session
dependency tracking, demand updates -- lives in the client-side replication
object behind the control object.
"""

from __future__ import annotations

from typing import Any

from repro.comm.invocation import MarshalledInvocation
from repro.core.control import ControlObject
from repro.sim.future import Future


class Stub:
    """Dynamic proxy for one client's view of a distributed shared object."""

    def __init__(self, control: ControlObject, client_id: str) -> None:
        self._control = control
        self.client_id = client_id

    def invoke(
        self,
        method: str,
        *args: Any,
        read_only: bool = True,
        weight: int = 1,
        **kwargs: Any,
    ) -> Future:
        """Invoke ``method`` on the distributed object.

        Returns a future resolved with the method result once the local
        object's coherence protocol allows the invocation to complete.
        ``weight`` is coherence metadata, not a method argument: the call
        stands in for that many identical cohort clients (weighted
        accounting in traces and metrics), so it travels beside the
        marshalled invocation rather than inside it.
        """
        invocation = MarshalledInvocation(
            method, args, tuple(sorted(kwargs.items())) if kwargs else (),
            read_only)
        return self._control.invoke(invocation, weight=weight)

    def read(
        self, method: str, *args: Any, weight: int = 1, **kwargs: Any
    ) -> Future:
        """Shorthand for a read-only invocation (built here, not through
        :meth:`invoke`: it is every client read's entry point)."""
        invocation = MarshalledInvocation(
            method, args, tuple(sorted(kwargs.items())) if kwargs else (),
            True)
        return self._control.invoke(invocation, weight=weight)

    def write(self, method: str, *args: Any, **kwargs: Any) -> Future:
        """Shorthand for a state-modifying invocation."""
        return self.invoke(method, *args, read_only=False, **kwargs)
