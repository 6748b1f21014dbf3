"""Seeded randomness for simulations.

All stochastic behaviour in a simulation -- network jitter, message loss,
workload inter-arrival times, Zipf page selection -- draws from one
:class:`SeededRng` owned by the :class:`repro.sim.kernel.Simulator`.
Components may fork child generators (:meth:`SeededRng.fork`) so that adding
a new consumer does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from typing import List, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")


@functools.lru_cache(maxsize=None)
def _zipf_weights_cached(n: int, s: float) -> Tuple[float, ...]:
    """Normalized Zipf(s) probabilities for ranks 0..n-1, memoized.

    Shared module-wide: a population of identical clients pays the
    O(n) harmonic sum once per distinct ``(n, s)``, not once per client.
    """
    raw = [1.0 / math.pow(rank + 1, s) for rank in range(n)]
    total = sum(raw)
    return tuple(w / total for w in raw)


@functools.lru_cache(maxsize=None)
def zipf_cumulative(n: int, s: float = 1.0) -> Tuple[float, ...]:
    """Cumulative Zipf(s) weights for ranks 0..n-1, memoized.

    ``zipf_cumulative(n, s)[i]`` equals ``sum(zipf_weights(n, s)[:i+1])``
    with the identical left-to-right accumulation, so a bisect over this
    table draws the same rank (from the same uniform variate) as the
    linear scan in :meth:`SeededRng.weighted_index` -- bit-for-bit.
    """
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n!r}")
    weights = _zipf_weights_cached(n, s)
    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    return tuple(cumulative)


class SeededRng:
    """A deterministic random source with distribution helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        # The underlying Mersenne Twister is materialized on first draw,
        # not at construction: large builds fork thousands of streams
        # (one per client, per component) and the ones never sampled
        # should not pay the ~2500-word MT state initialization.  The
        # draw sequence per stream is untouched -- the seed is fixed at
        # construction, only the state setup is deferred.  It is
        # ``False`` once released (:meth:`release`): falsy, so a draw
        # still costs one ``or`` and only ``_materialize`` checks it.
        self._random: Union[random.Random, None, bool] = None
        self._forks = 0

    def _materialize(self) -> random.Random:
        if self._random is False:
            raise RuntimeError(
                f"stream {self.seed} was released: it has no draws left")
        rng = self._random = random.Random(self.seed)
        return rng

    def release(self) -> None:
        """Drop the generator state for good: its owner draws no more.

        Every later draw raises instead of replaying the stream from its
        seed; :meth:`fork` still works, because it needs only the seed.
        """
        self._random = False

    def fork(self, label: str = "") -> "SeededRng":
        """Create an independent child generator.

        The child's seed is derived from the parent seed, the fork index and
        an optional label via a stable hash, so fork order plus labels fully
        determine every stream -- across processes and interpreter
        invocations, not just within one (the built-in ``hash`` is
        randomized per process and must not be used here).
        """
        self._forks += 1
        digest = hashlib.sha256(
            f"{self.seed}|{self._forks}|{label}".encode("utf-8")
        ).digest()
        child_seed = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        return SeededRng(child_seed)

    # -- thin pass-throughs -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._random or self._materialize()).random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return (self._random or self._materialize()).uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return (self._random or self._materialize()).randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly chosen element of a non-empty sequence."""
        return (self._random or self._materialize()).choice(items)

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        (self._random or self._materialize()).shuffle(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """k distinct elements chosen without replacement."""
        return (self._random or self._materialize()).sample(items, k)

    # -- distributions ------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean.

        Used for Poisson inter-arrival times in workload generators.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return (self._random or self._materialize()).expovariate(1.0 / mean)

    def exponential_block(self, mean: float, count: int) -> List[float]:
        """``count`` exponential draws in one call (vectorized epoch draw).

        Consumes the stream exactly as ``count`` single
        :meth:`exponential` calls would, so batching is invisible to
        seeded results; it only removes per-draw call overhead from
        workload hot loops.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        rate = 1.0 / mean
        expovariate = (self._random or self._materialize()).expovariate
        return [expovariate(rate) for _ in range(count)]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p!r}")
        return (self._random or self._materialize()).random() < p

    @staticmethod
    def zipf_weights(n: int, s: float = 1.0) -> List[float]:
        """Normalized Zipf(s) probabilities for ranks 0..n-1.

        The computation is memoized module-wide by ``(n, s)``; callers
        receive a fresh list, so mutating it cannot poison the cache.
        """
        return list(_zipf_weights_cached(n, s))

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Index drawn with probability proportional to ``weights``."""
        if not weights:
            raise ValueError("weights must be non-empty")
        target = (self._random or self._materialize()).random() * sum(weights)
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if target < cumulative:
                return index
        return len(weights) - 1
