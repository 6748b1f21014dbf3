"""Network microbenchmark: datagrams/sec through the datagram path.

Measures the per-datagram overhead of :class:`repro.net.network.Network`,
the one send -> arrive path every substrate shares::

    python benchmarks/bench_net.py                 # full microbench
    python benchmarks/bench_net.py --ops 50000     # quicker run

Three microbench rows time the complete datagram lifecycle (send through
arrival callback, simulator driven between batches so the pending queue
stays small):

- ``send_reliable`` -- unicast through the FIFO clamp and the per-pair
  delay memo;
- ``send_unreliable`` -- unicast through the loss draw (rate 0, so the
  draw itself is what's measured);
- ``multicast`` -- a fan-out, i.e. a loop of sends.

The rows are trajectory data, not gates.  What used to be this script's
parity section (a tracer or a healed fault must not change the traffic)
is pinned by ``tests/test_net_network.py``.

Not a pytest module: run it directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.net.latency import ConstantLatency  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

#: Datagrams sent per batch before draining the simulator; keeps the
#: pending-event count (and therefore queue cost) flat across ``--ops``.
BATCH = 1_000


def _build(n_nodes: int = 4, seed: int = 7) -> Tuple[Simulator, Network, Dict]:
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.001))
    boxes: Dict[str, List] = {}

    for index in range(n_nodes):
        name = f"n{index}"
        box: List = []
        boxes[name] = box
        net.register(name, lambda src, payload, size, _box=box:
                     _box.append(payload))
    return sim, net, boxes


def bench_send(ops: int, reliable: bool) -> Dict[str, Any]:
    """Unicast datagrams/sec, full lifecycle (send + drive to arrival)."""
    sim, net, _ = _build(n_nodes=2)
    started = time.perf_counter()
    sent = 0
    while sent < ops:
        batch = min(BATCH, ops - sent)
        for _ in range(batch):
            net.send("n0", "n1", sent, size_bytes=64, reliable=reliable)
        sim.run_until_idle()
        sent += batch
    elapsed = time.perf_counter() - started
    return {
        "ops": ops,
        "reliable": reliable,
        "seconds": round(elapsed, 4),
        "datagrams_per_sec": round(ops / elapsed, 1),
        "delivered": net.stats.datagrams_delivered,
    }


def bench_multicast(ops: int, fanout: int) -> Dict[str, Any]:
    """Multicast calls/sec and effective datagrams/sec for one fan-out."""
    sim, net, _ = _build(n_nodes=fanout + 1)
    dsts = [f"n{i}" for i in range(fanout + 1)]  # includes self, skipped
    calls = max(1, ops // fanout)
    started = time.perf_counter()
    done = 0
    while done < calls:
        batch = min(BATCH, calls - done)
        for _ in range(batch):
            net.multicast("n0", dsts, done, size_bytes=64)
        sim.run_until_idle()
        done += batch
    elapsed = time.perf_counter() - started
    datagrams = calls * fanout
    return {
        "calls": calls,
        "fanout": fanout,
        "seconds": round(elapsed, 4),
        "calls_per_sec": round(calls / elapsed, 1),
        "datagrams_per_sec": round(datagrams / elapsed, 1),
        "delivered": net.stats.datagrams_delivered,
    }


def main(argv) -> int:
    """Run the network microbench and write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_net.py",
        description="Benchmark the datagram send/multicast lifecycle.",
    )
    parser.add_argument("--ops", type=int, default=200_000,
                        help="datagrams per microbench row "
                             "(default 200000)")
    parser.add_argument("--fanout", type=int, default=20,
                        help="multicast fan-out (default 20)")
    parser.add_argument("--out", default="BENCH_net.json",
                        help="report path (default BENCH_net.json)")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {
        "benchmark": "datagram path: send/multicast lifecycle",
        "cpu_count": os.cpu_count(),
        "send_reliable": bench_send(args.ops, reliable=True),
        "send_unreliable": bench_send(args.ops, reliable=False),
        "multicast": bench_multicast(args.ops, args.fanout),
    }
    for row in ("send_reliable", "send_unreliable", "multicast"):
        print(f"{row:>16}: {report[row]['datagrams_per_sec']:>12,.0f} "
              f"datagrams/sec")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
