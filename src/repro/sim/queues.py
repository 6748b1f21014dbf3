"""Pluggable event queues for the simulation kernel.

The :class:`~repro.sim.kernel.Simulator` extracts the next event to fire
from an *event queue*: a priority queue over :class:`~repro.sim.events.
Event` ordered by ``(time, seq)``.  Two implementations ship:

- :class:`HeapEventQueue` -- the historical binary heap (``heapq``).
  O(log n) per operation in the total pending-event count; the right
  choice for small populations and the reference for equivalence tests.
- :class:`CalendarEventQueue` -- a calendar queue (R. Brown, CACM 1988):
  a circular array of day buckets, each holding the events of one
  ``width``-sized slice of virtual time.  Push hashes an event to its
  bucket directly; pop scans forward from the current day.  With the
  bucket count tracking the pending-event count, both operations are
  amortized O(1).  Measured on the hold model that only pays off from
  roughly 10^5 pending events up (it is slower than the heap below, and
  1.2-1.4x faster at 10^6), a pending set no workload in this tree
  reaches.

Both queues key their internal heaps by explicit ``(time, seq, event)``
tuples rather than comparing :class:`~repro.sim.events.Event` objects:
``seq`` is unique, so tuple comparison resolves in C without ever
reaching the event, where an ``Event.__lt__`` call per heap sift used to
dominate queue cost.

Both queues deliver events in exactly the same total order -- ascending
``(time, seq)`` -- so a seeded simulation produces bit-identical results
regardless of the scheduler choice.  The property and golden parity
tests in ``tests/test_sim_scheduler.py`` pin this equivalence.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple, Type

from repro.sim.events import Event

#: One queue entry: the explicit sort key plus its event.  ``seq`` is
#: unique per simulation, so comparisons never fall through to the event.
QueueEntry = Tuple[float, int, Event]


class HeapEventQueue:
    """The classic binary-heap event queue (``heapq`` over one list)."""

    name = "heap"

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        """Insert ``event``, keyed by its ``(time, seq)`` order."""
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def peek(self) -> Optional[Event]:
        """The minimum event without removing it, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop(self) -> Optional[Event]:
        """Remove and return the minimum event, or ``None`` when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]


class CalendarEventQueue:
    """A calendar-queue event queue with deterministic total order.

    Events hash to ``day = int(time / width)`` and live in bucket
    ``day % nbuckets`` (a small heap of ``(time, seq, event)`` entries,
    so simultaneous events stay in ``seq`` order).  :meth:`pop` scans
    days forward from the last popped day; a full fruitless rotation
    falls back to a direct minimum search across bucket heads and jumps
    the calendar there, so sparse far-future schedules cost one
    O(nbuckets) scan instead of a year-by-year walk.

    The queue resizes itself (doubling/halving the bucket count and
    re-estimating the bucket width from the live event span) whenever the
    population drifts out of the ``nbuckets/2 .. 2*nbuckets`` band, which
    keeps buckets O(1) in expectation.  All decisions are pure functions
    of the queued events, so the pop order -- ascending ``(time, seq)``,
    identical to :class:`HeapEventQueue` -- is deterministic.
    """

    name = "calendar"

    #: Bucket-count bounds: small enough to keep the empty queue cheap,
    #: no upper bound (the population dictates growth).
    MIN_BUCKETS = 8

    __slots__ = ("_buckets", "_nbuckets", "_width", "_size", "_day",
                 "_last_time", "_peeked", "_peeked_day")

    def __init__(self, width: float = 0.05, nbuckets: int = MIN_BUCKETS) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width!r}")
        if nbuckets < 1:
            raise ValueError(f"need at least one bucket, got {nbuckets!r}")
        self._width = float(width)
        self._nbuckets = int(nbuckets)
        self._buckets: List[List[QueueEntry]] = [
            [] for _ in range(self._nbuckets)
        ]
        self._size = 0
        self._day = 0          # the calendar day the next pop scans from
        self._last_time = 0.0  # monotone: the last popped event time
        self._peeked: Optional[QueueEntry] = None  # cached minimum entry
        self._peeked_day = 0                       # its calendar day

    def __len__(self) -> int:
        return self._size

    def _day_of(self, time: float) -> int:
        """The calendar day (bucket-width slice index) holding ``time``."""
        return int(time / self._width)

    def push(self, event: Event) -> None:
        """Insert ``event``; grows the calendar when buckets crowd."""
        time = event.time
        entry = (time, event.seq, event)
        day = int(time / self._width)
        heapq.heappush(self._buckets[day % self._nbuckets], entry)
        self._size += 1
        if day < self._day:
            # Keep ``_day`` a lower bound on every queued event's day, so
            # the forward scan can never claim a later event first.  (The
            # kernel can discard a cancelled future event and then admit
            # earlier schedules, so pops alone do not maintain this.)
            self._day = day
        if self._peeked is not None and entry < self._peeked:
            self._peeked = None  # the cached minimum is no longer minimal
        if self._size > 2 * self._nbuckets:
            self._resize(self._nbuckets * 2)

    def peek(self) -> Optional[Event]:
        """The minimum event without removing it, or ``None`` when empty.

        Locating the minimum does not advance the calendar -- essential
        for the kernel's run loop, which peeks at events it may decide
        *not* to fire (deadline reached, only daemons left).  The scan
        result is cached, so the pop that usually follows is O(1); a
        push of an earlier event or a resize invalidates the cache.
        """
        if self._size == 0:
            return None
        if self._peeked is not None:
            return self._peeked[2]
        nbuckets = self._nbuckets
        width = self._width
        day = self._day
        for _ in range(nbuckets):
            bucket = self._buckets[day % nbuckets]
            if bucket and int(bucket[0][0] / width) == day:
                self._peeked = bucket[0]
                self._peeked_day = day
                return self._peeked[2]
            day += 1
        # A whole rotation held nothing due this year: jump straight to
        # the earliest event (the minimum over bucket heads).
        head = min(bucket[0] for bucket in self._buckets if bucket)
        self._peeked = head
        self._peeked_day = self._day_of(head[0])
        return head[2]

    def pop(self) -> Optional[Event]:
        """Remove and return the minimum event, or ``None`` when empty.

        Popped events must be consumed (fired or discarded as
        cancelled), never reinserted: the calendar advances to the popped
        event's day, and the kernel's clock guarantee (no event is ever
        scheduled before the last consumed time) is what keeps the
        forward scan correct.
        """
        if self.peek() is None:
            return None
        self._day = self._peeked_day
        entry = heapq.heappop(self._buckets[self._day % self._nbuckets])
        self._peeked = None
        self._size -= 1
        self._last_time = entry[0]
        if (
            self._nbuckets > self.MIN_BUCKETS
            and self._size < self._nbuckets // 2
        ):
            self._resize(max(self.MIN_BUCKETS, self._nbuckets // 2))
        return entry[2]

    def _resize(self, nbuckets: int) -> None:
        """Rebuild with ``nbuckets`` buckets and a re-estimated width.

        The width targets ~3 events per bucket-day over the live event
        span -- the classic calendar-queue heuristic, computed here from
        the full population (cheap: a resize already touches every
        event) so the estimate is deterministic.
        """
        entries: List[QueueEntry] = [
            entry for bucket in self._buckets for entry in bucket
        ]
        lo = self._last_time
        if entries:
            lo = min(entry[0] for entry in entries)
            hi = max(entry[0] for entry in entries)
            span = hi - lo
            if span > 0.0:
                self._width = 3.0 * span / max(1, len(entries))
        self._nbuckets = nbuckets
        self._buckets = [[] for _ in range(nbuckets)]
        for entry in entries:
            heapq.heappush(
                self._buckets[self._day_of(entry[0]) % nbuckets], entry
            )
        # Restart the scan at the earliest queued event: the new width
        # renumbers every day, and the cached peek is stale too.
        self._day = self._day_of(lo)
        self._peeked = None


#: Selectable event-queue implementations, by scheduler name.
SCHEDULERS: Dict[str, Type] = {
    HeapEventQueue.name: HeapEventQueue,
    CalendarEventQueue.name: CalendarEventQueue,
}


def make_event_queue(scheduler: str):
    """Build the event queue for ``scheduler`` (``"heap"``/``"calendar"``)."""
    try:
        factory = SCHEDULERS[scheduler]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"available: {', '.join(sorted(SCHEDULERS))}"
        ) from None
    return factory()
