"""Simulated wide-area network substrate (S2).

Models the Internet underneath the Globe middleware: named nodes (address
spaces) attached to a :class:`Network` that delivers datagrams with
configurable latency, jitter, loss and partitions.  Transport-level
guarantees (TCP-like reliable FIFO vs UDP-like lossy unordered) are layered
on top in :mod:`repro.comm`.

Public API
----------
- :class:`Network` -- datagram delivery between registered nodes.
- :class:`LatencyModel` and implementations -- one-way delay computation.
"""

from repro.net.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.net.network import Network, NetworkStats

__all__ = [
    "ConstantLatency",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "UniformLatency",
]
