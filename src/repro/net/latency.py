"""Latency models for the simulated network.

A latency model maps ``(source, destination, size_bytes)`` to a one-way
delay in seconds.  :class:`ConstantLatency` is what every deployment
builds; :class:`UniformLatency` draws jitter from the simulation RNG
passed at construction, and tests subclass :class:`LatencyModel` to
inject reordering.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.rng import SeededRng


class LatencyModel:
    """Base class; subclasses override :meth:`delay`."""

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """One-way delay in seconds for a datagram of ``size_bytes``."""
        raise NotImplementedError

    def fixed_delay(self) -> Optional[float]:
        """The one delay every datagram takes, if the model has one.

        The network asks once, when the model is assigned, and adds the
        answer to ``now`` for every datagram without calling
        :meth:`delay`; ``None`` (the default) means :meth:`delay` is
        called per datagram.
        """
        return None


class ConstantLatency(LatencyModel):
    """Every datagram takes the same base delay."""

    def __init__(self, base: float = 0.05) -> None:
        if base < 0:
            raise ValueError(f"base latency must be non-negative, got {base!r}")
        self.base = base

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """The constant base delay."""
        return self.base

    def fixed_delay(self) -> Optional[float]:
        """The base delay."""
        return self.base


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high] per datagram.

    With ``high > 2 * low`` this model reorders datagrams aggressively,
    which is exactly the regime that exposes protocols relying on network
    ordering instead of WiD ordering (design decision D1).
    """

    def __init__(self, low: float, high: float, rng: SeededRng) -> None:
        if low < 0 or high < low:
            raise ValueError(f"need 0 <= low <= high, got {low!r}, {high!r}")
        self.low = low
        self.high = high
        self.rng = rng

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Uniformly jittered delay."""
        return self.rng.uniform(self.low, self.high)
