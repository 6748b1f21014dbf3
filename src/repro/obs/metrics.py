"""Named counters, gauges and histograms with plain-data snapshots.

A :class:`MetricsRegistry` is a flat namespace of metric instruments.
Instruments are cheap mutable cells (``__slots__``, no locks -- they
mutate on the protocol thread like the rest of the stack);
:meth:`MetricsRegistry.snapshot` renders the whole registry as plain
``{name: value}`` data that :mod:`repro.exec.codec` serializes like
any payload, so per-run metrics ride the sweep result transport and land in
the :class:`~repro.exec.ResultCache` next to the payloads they
describe.

The network transports' historical
:class:`~repro.net.network.NetworkStats` counters are mirrored into a
registry by :meth:`NetworkStats.bind`.  The mirror is *lazy*: counter
bumps are plain slotted-attribute writes, and the registry is brought
current by a collector callback when :meth:`MetricsRegistry.snapshot`
runs (see :meth:`add_collector`), so the per-datagram path pays nothing
for the export surface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Union


class Counter:
    """A monotonically *intended* integer counter (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (used by the NetworkStats mirror)."""
        self.value = value


class Gauge:
    """A point-in-time numeric value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean).

    Deliberately not a bucketed histogram: the sweep results already
    carry full sample arrays where distributions matter; this is the
    cheap always-on aggregate.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        """The snapshot form of this histogram."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat namespace of named metric instruments.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the existing instrument afterwards; asking for an existing name as
    a different instrument type is an error (silent aliasing would
    corrupt both series).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every :meth:`snapshot`.

        Collectors let hot-path components keep their counters in plain
        attributes (no per-increment mirroring) and publish them into the
        registry only when a snapshot is actually taken -- the
        :class:`~repro.net.network.NetworkStats` sync is the canonical
        user.  Registering the same callable twice is a no-op.
        """
        if collector not in self._collectors:
            self._collectors.append(collector)

    def _get(self, name: str, factory: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        """Whether an instrument named ``name`` exists."""
        return name in self._metrics

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as plain, codec-serializable data.

        Counters and gauges map to their numeric value, histograms to
        their ``summary()`` dict.  Keys are sorted so the snapshot is a
        deterministic function of the registry contents.  Registered
        collectors run first, so lazily mirrored sources (the network
        stat counters) are current in the returned data.
        """
        for collector in self._collectors:
            collector()
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out
