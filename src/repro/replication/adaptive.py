"""Self-adaptive replication policies (the paper's §5 future work).

"Ideally, the implementation parameters can be modified dynamically as the
usage characteristics of an object changes. However, self-adaptive policies
are beyond the scope of this paper; they are a subject of future research."
(§3.3/§5.)  This module implements that future work in its simplest useful
form: a controller attached to the primary store observes the object's
read/write mix over sliding windows and adjusts two Table-1 parameters:

- **consistency propagation**: objects that are written much more often
  than they are read switch to *invalidate* (why ship content nobody
  reads?); read-dominated objects switch back to *update*;
- **transfer instant**: write bursts switch propagation to *lazy*
  aggregation; quiet objects return to *immediate* so single updates are
  not needlessly delayed.

A policy is a frozen value, so the controller never edits one: it builds
the next with ``dataclasses.replace`` and swaps it in through
:meth:`~repro.core.dso.DistributedSharedObject.set_policy`, which
re-parameterizes every store of the object at once -- the
dynamic-strategy-update capability the paper attributes to its
standardized interfaces.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.replication.engine import StoreReplicationObject
from repro.replication.policy import Propagation, TransferInstant

if TYPE_CHECKING:  # repro.core.dso imports this package
    from repro.core.dso import DistributedSharedObject


@dataclasses.dataclass(frozen=True)
class AdaptationEvent:
    """One parameter change made by the controller."""

    time: float
    parameter: str
    old: str
    new: str
    reads: int
    writes: int


@dataclasses.dataclass
class AdaptiveConfig:
    """Thresholds for the adaptation rules."""

    #: Controller sampling period (seconds).
    interval: float = 5.0
    #: Reads-per-write below which propagation flips to invalidate.
    invalidate_below: float = 0.5
    #: Reads-per-write above which propagation flips back to update.
    update_above: float = 2.0
    #: Writes per window at or above which the instant flips to lazy.
    lazy_at_writes: int = 5
    #: Writes per window at or below which it flips back to immediate.
    immediate_at_writes: int = 1


class AdaptivePolicyController:
    """Watches a primary store and retunes its object's policy.

    Parameters
    ----------
    dso:
        The object whose policy is retuned.  Each change is a new policy,
        ``dataclasses.replace(dso.policy, ...)``, swapped in with
        ``dso.set_policy``.
    primary:
        The primary store's replication engine; its counters are the
        controller's signal.
    schedule:
        ``schedule(delay, fn, daemon=...)`` -- the simulation kernel's (or
        live loop's) timer facility.
    now:
        Clock callable, for stamping adaptation events.
    """

    def __init__(
        self,
        dso: DistributedSharedObject,
        primary: StoreReplicationObject,
        schedule: Callable,
        now: Callable[[], float],
        config: Optional[AdaptiveConfig] = None,
        observers: Optional[List[StoreReplicationObject]] = None,
    ) -> None:
        self.dso = dso
        self.primary = primary
        self.schedule = schedule
        self.now = now
        self.config = config or AdaptiveConfig()
        #: Stores whose served reads count toward the read signal.  Reads
        #: are mostly absorbed by caches and never reach the primary, so
        #: the controller must observe the whole hierarchy; writes all
        #: land at the primary.
        self.observers = list(observers) if observers else [primary]
        if primary not in self.observers:
            self.observers.append(primary)
        self.events: List[AdaptationEvent] = []
        self._last_reads = 0
        self._last_writes = 0
        self._timer = None
        self._running = False

    def start(self) -> None:
        """Begin periodic sampling."""
        if self._running:
            return
        self._running = True
        self._timer = self.schedule(
            self.config.interval, self._tick, daemon=True
        )

    def stop(self) -> None:
        """Stop sampling."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- sampling -----------------------------------------------------------

    def _window(self) -> tuple:
        reads_total = sum(
            engine.counters.get("rx:read", 0) for engine in self.observers
        )
        writes_total = self.primary.counters.get("rx:write", 0)
        reads = reads_total - self._last_reads
        writes = writes_total - self._last_writes
        self._last_reads = reads_total
        self._last_writes = writes_total
        return reads, writes

    def _tick(self) -> None:
        try:
            reads, writes = self._window()
            self._adapt_propagation(reads, writes)
            self._adapt_instant(reads, writes)
        finally:
            if self._running:
                self._timer = self.schedule(
                    self.config.interval, self._tick, daemon=True
                )

    # -- rules ----------------------------------------------------------------

    def _swap(self, parameter: str, new, reads: int, writes: int) -> None:
        """Swap in a policy with ``parameter`` set to ``new``; record it."""
        policy = self.dso.policy
        old = getattr(policy, parameter)
        self.dso.set_policy(dataclasses.replace(policy, **{parameter: new}))
        self.events.append(AdaptationEvent(
            time=self.now(), parameter=parameter, old=old.value,
            new=new.value, reads=reads, writes=writes,
        ))

    def _adapt_propagation(self, reads: int, writes: int) -> None:
        if reads == 0 and writes == 0:
            return  # idle window: no signal
        # A window with reads and no writes is maximally read-dominated.
        ratio = reads / writes if writes else float("inf")
        current = self.dso.policy.propagation
        if (
            ratio < self.config.invalidate_below
            and current is Propagation.UPDATE
        ):
            self._swap("propagation", Propagation.INVALIDATE, reads, writes)
        elif (
            ratio > self.config.update_above
            and current is Propagation.INVALIDATE
        ):
            self._swap("propagation", Propagation.UPDATE, reads, writes)

    def _adapt_instant(self, reads: int, writes: int) -> None:
        current = self.dso.policy.transfer_instant
        if (
            writes >= self.config.lazy_at_writes
            and current is TransferInstant.IMMEDIATE
        ):
            self._swap("transfer_instant", TransferInstant.LAZY,
                       reads, writes)
        elif (
            writes <= self.config.immediate_at_writes
            and current is TransferInstant.LAZY
        ):
            self._swap("transfer_instant", TransferInstant.IMMEDIATE,
                       reads, writes)
