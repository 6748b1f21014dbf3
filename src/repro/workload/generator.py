"""Client workload generators.

Workloads are :class:`~repro.sim.process.Process` generators driving
:class:`~repro.web.webobject.Browser` stubs: each operation is issued, its
future awaited, and the next operation follows after an exponential think
time.  The same :class:`~repro.sim.process.Process` drives them on every
clock, virtual or wall-clock.  All randomness comes from forked RNGs
(deterministic per seed).

Per-request randomness is drawn in vectorized per-epoch blocks
(:data:`EPOCH` operations at a time): think times via
:meth:`~repro.sim.rng.SeededRng.exponential_block`, page ranks via a
bisect over memoized cumulative Zipf weights.  Every block consumes its
RNG stream in exactly the order the historical one-draw-per-request code
did, so seeded results -- and therefore every cached sweep and golden --
are unchanged; only the per-request Python overhead is gone.

A workload owns the streams it is given (callers pass a fresh fork), so
once its last block is drawn it releases them
(:meth:`~repro.sim.rng.SeededRng.release`): a finished or idle client
keeps no Mersenne-Twister state, only its seeds.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_right
from typing import Callable, Generator, List, Optional, Sequence

from repro.replication.client import ReplicaError
from repro.sim.process import Delay, WaitFor
from repro.sim.rng import SeededRng, zipf_cumulative

#: Operations whose randomness is pre-drawn in one block.  Bounds the
#: per-process buffer (an ``array('d')`` of think times, 8 B each, and a
#: list of page references) while amortizing the block-draw call
#: overhead across an epoch of requests.
EPOCH = 256


class ZipfPagePicker:
    """Zipf-distributed page selection over a fixed page list.

    The cumulative weight table is memoized module-wide by
    ``(len(pages), skew)`` -- a population of identical clients shares
    one table instead of recomputing the harmonic sum per client.
    """

    def __init__(self, pages: Sequence[str], rng: SeededRng, skew: float = 1.0) -> None:
        if not pages:
            raise ValueError("pages must be non-empty")
        self.pages = list(pages)
        self.rng = rng
        self.skew = skew
        self.cumulative = zipf_cumulative(len(self.pages), skew)

    @property
    def weights(self) -> List[float]:
        """The (memoized) per-rank probabilities, rank 0 most popular."""
        return SeededRng.zipf_weights(len(self.pages), self.skew)

    def pick(self) -> str:
        """One page, rank-0 most popular.

        Draws one uniform variate and bisects the cumulative table --
        the same rank the historical linear scan produced from the same
        variate, in O(log n) instead of O(n).
        """
        last = len(self.pages) - 1
        target = self.rng.random() * self.cumulative[last]
        return self.pages[min(bisect_right(self.cumulative, target), last)]

    def pick_block(self, count: int) -> List[str]:
        """``count`` picks in one call (vectorized epoch draw).

        Stream-order identical to ``count`` single :meth:`pick` calls.
        """
        random = self.rng.random
        cumulative = self.cumulative
        pages = self.pages
        last = len(pages) - 1
        total = cumulative[last]
        return [
            pages[min(bisect_right(cumulative, random() * total), last)]
            for _ in range(count)
        ]


@dataclasses.dataclass
class WorkloadStats:
    """What one workload process observed."""

    operations: int = 0
    errors: int = 0
    not_found: int = 0


class ReaderWorkload:
    """Browsing clients: Zipf page reads with exponential think time.

    One process stands in for ``weight`` identical leaf clients (1 by
    default: a reader is a cohort of one); see
    :mod:`repro.workload.cohort` for when that collapse is exact.

    Parameters
    ----------
    browser:
        The browser reads go through; its reads carry ``weight``.
    pages / skew:
        Page population and Zipf skew.
    rng:
        This process's own random stream (think times; page picks use a
        ``"pages"`` fork), released after the last draw.
    mean_think / operations:
        Think time and rounds *per member*; each round issues one read
        representing one read by every member.
    weight:
        How many leaf clients this process stands in for.
    expand:
        Zero-argument callable returning the per-member browsers, bound
        lazily when a policy decision diverges.  ``None`` disables
        expansion.
    """

    def __init__(
        self,
        browser: Browser,
        pages: Sequence[str],
        rng: SeededRng,
        mean_think: float = 1.0,
        operations: int = 50,
        skew: float = 1.0,
        weight: int = 1,
        expand: Optional[Callable[[], List[Browser]]] = None,
    ) -> None:
        if weight < 1:
            raise ValueError(f"cohort weight must be >= 1, got {weight!r}")
        self.browser = browser
        self.picker = ZipfPagePicker(pages, rng.fork("pages"), skew)
        self.rng = rng
        self.mean_think = mean_think
        self.operations = operations
        self.weight = weight
        self.expand = expand
        #: Individually bound member browsers once expanded, else ``None``.
        self.members: Optional[List[Browser]] = None
        self.stats = WorkloadStats()

    def run(self) -> Generator:
        """Generator body for :class:`~repro.sim.process.Process`.

        Randomness is pre-drawn one epoch at a time.  Think times come
        from this workload's own stream and page picks from the picker's
        forked stream, so blocking each independently consumes both
        streams in the historical per-request order; both are released
        once the last block is drawn.  Each round is one read of
        ``weight`` (or, after expansion, one read per member).
        """
        weight = self.weight
        stats = self.stats
        remaining = self.operations
        while remaining > 0:
            block = min(remaining, EPOCH)
            remaining -= block
            thinks = array("d", self.rng.exponential_block(self.mean_think,
                                                           block))
            pages = self.picker.pick_block(block)
            if not remaining:
                self.rng.release()
                self.picker.rng.release()
            for think, page in zip(thinks, pages):
                yield Delay(think)
                if self.members is None:
                    try:
                        yield WaitFor(
                            self.browser.read_page(page, weight=weight)
                        )
                    except ReplicaError:
                        stats.not_found += weight
                    except Exception:
                        # A fault hit the shared request: every member saw
                        # it (one wire request, one failure instant), so
                        # the round is charged at full weight -- then the
                        # cohort expands, because retries/timeouts from
                        # here on would diverge per client.
                        stats.errors += weight
                        if self.expand is not None:
                            self.members = list(self.expand())
                    stats.operations += weight
                    continue
                for member in self.members:
                    try:
                        yield WaitFor(member.read_page(page))
                    except ReplicaError:
                        stats.not_found += 1
                    except Exception:
                        stats.errors += 1
                    stats.operations += 1
        return stats


class WriterWorkload:
    """A content master: periodic page updates.

    ``incremental=True`` appends (the paper's conference master, needing
    PRAM); ``False`` overwrites whole pages (the FIFO-friendly pattern).
    """

    def __init__(
        self,
        browser: Browser,
        pages: Sequence[str],
        rng: SeededRng,
        interval: float = 2.0,
        operations: int = 20,
        incremental: bool = True,
        payload_bytes: int = 256,
    ) -> None:
        self.browser = browser
        self.pages = list(pages)
        self.rng = rng
        self.interval = interval
        self.operations = operations
        self.incremental = incremental
        self.payload_bytes = payload_bytes
        self.stats = WorkloadStats()

    def _payload(self, index: int) -> str:
        filler = "x" * max(0, self.payload_bytes - 16)
        return f"<!--{index}-->{filler}"

    def _draw_epoch(self, count: int) -> List[tuple]:
        """``count`` (think, page) pairs drawn in interleaved order.

        The writer historically alternated ``exponential`` and ``choice``
        on one stream per operation, so the pairs must be drawn
        interleaved -- not as two separate blocks -- to stay
        stream-identical.
        """
        exponential = self.rng.exponential
        choice = self.rng.choice
        interval = self.interval
        pages = self.pages
        return [(exponential(interval), choice(pages)) for _ in range(count)]

    def run(self) -> Generator:
        """Generator body for :class:`~repro.sim.process.Process`.

        Draws one epoch at a time and releases its stream after the last.
        """
        index = 0
        remaining = self.operations
        draws: List[tuple] = []
        while remaining > 0 or draws:
            if not draws:
                block = min(remaining, EPOCH)
                remaining -= block
                draws = self._draw_epoch(block)
                draws.reverse()  # consume via O(1) pops from the end
                if not remaining:
                    self.rng.release()
            think, page = draws.pop()
            yield Delay(think)
            content = self._payload(index)
            try:
                if self.incremental:
                    yield WaitFor(self.browser.append_to_page(page, content))
                else:
                    yield WaitFor(self.browser.write_page(page, content))
            except Exception:
                self.stats.errors += 1
            self.stats.operations += 1
            index += 1
        return self.stats
