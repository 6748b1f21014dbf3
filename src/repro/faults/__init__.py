"""Backend-agnostic fault injection: declarative plans over any transport.

The paper motivates hierarchical replication with an unreliable wide-area
network, so fault behaviour must be a property of the *scenario*, not of
one substrate.  This package makes it so:

- :mod:`repro.faults.plan` -- :class:`FaultPlan`, an ordered list of timed
  :class:`FaultEvent`\\ s (partitions, heals, loss bursts, node crash and
  restart) plus parametric generators (periodic flap, seeded random
  churn);
- :mod:`repro.faults.transport` -- the :class:`FaultableTransportMixin`
  partition / queue / heal / crash control surface and state behind the
  one datagram path of :class:`~repro.net.network.Network`, which the
  wall-clock :class:`~repro.runtime.live.LiveNetwork` and
  :class:`~repro.runtime.socket.SocketNetwork` inherit;
- :mod:`repro.faults.injector` -- the :class:`FaultInjector` that executes
  a plan against the :class:`~repro.transport.interface.Clock` protocol,
  either on a timer (soaks, sweeps) or stepped manually at convergence
  barriers (the deterministic sim/live parity scenario);
- :mod:`repro.faults.catalog` -- named fault plans (``"none"``,
  ``"partition-heal"``, ``"flap"``, ``"crash-restart"``, ``"churn"``)
  whose *names* travel through sweep configs and cache keys exactly like
  workload-profile names do.

Because both network stacks implement the same control surface, one plan
runs unchanged in virtual and wall-clock time (experiments X11/X12).
"""

from repro.faults.catalog import (
    FAULT_PLANS,
    FaultPlanDef,
    build_fault_plan,
    get_fault_plan,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashNode,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    Heal,
    LossBurst,
    Partition,
    RestartNode,
    periodic_flap,
    random_churn,
)
from repro.faults.transport import FaultableTransportMixin

__all__ = [
    "FAULT_PLANS",
    "CrashNode",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanDef",
    "FaultPlanError",
    "FaultableTransportMixin",
    "Heal",
    "LossBurst",
    "Partition",
    "RestartNode",
    "build_fault_plan",
    "get_fault_plan",
    "periodic_flap",
    "random_churn",
]
