"""The propagation strategy: push/pull, immediate/lazy, gossip-up.

One of the four protocol components behind the
:class:`~repro.replication.engine.StoreReplicationObject` façade.  After
the engine applies records, this component decides *whether and when* they
travel: gossip locally-accepted writes up to the parent, push to children
immediately, buffer them for a lazy aggregated flush, or do nothing at all
(pull initiative, where children come and get it -- including the periodic
pull timer this component arms for pull+lazy policies).

*What* a transmission carries is the
:class:`~repro.replication.emission.CoherenceEmitter`'s decision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.coherence.models import CoherenceModel
from repro.coherence.records import WriteRecord
from repro.obs import tracer as _obs
from repro.replication.policy import TransferInitiative, TransferInstant


class PropagationStrategy:
    """When-and-to-whom component of one store's protocol stack."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: Records buffered for the next lazy flush.
        self.pending_lazy: List[WriteRecord] = []
        self._lazy_timer = None
        self._pull_timer = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic-pull timer if the policy calls for one.

        The lazy-flush timer is armed on demand (when the first update is
        buffered) so that idle objects schedule nothing.
        """
        engine = self.engine
        if (
            engine.policy.transfer_initiative is TransferInitiative.PULL
            and engine.policy.transfer_instant is TransferInstant.LAZY
            and engine.parent is not None
        ):
            self._pull_timer = engine.clock.schedule(
                engine.policy.lazy_interval, self._periodic_pull, daemon=True
            )

    def stop(self) -> None:
        """Cancel timers."""
        if self._lazy_timer is not None:
            self._lazy_timer.cancel()
        if self._pull_timer is not None:
            self._pull_timer.cancel()

    # -- strategy -------------------------------------------------------------

    def propagate(
        self, records: Sequence[WriteRecord], skip: Optional[str] = None
    ) -> None:
        """Ship newly applied records to peers per the policy."""
        engine = self.engine
        # Gossip up: writes accepted at a non-primary store (eventual
        # multi-writer) flow to the parent immediately for convergence.
        # Nothing to scan for at the root or when the parent sent the batch.
        if engine.parent is not None and skip != engine.parent:
            locally_accepted = [
                r for r in records if r.origin == engine.address
            ]
            if locally_accepted:
                engine.emission.send_update(engine.parent, locally_accepted)
        if _obs.ACTIVE is not None:
            if engine.policy.transfer_initiative is TransferInitiative.PULL:
                decision = "pull-hold"
            elif engine.policy.transfer_instant is TransferInstant.LAZY:
                decision = "lazy-buffer"
            else:
                decision = "push"
            _obs.ACTIVE.event(
                engine.clock.now, "repl.propagate",
                node=engine.address,
                decision=decision, records=len(records),
                strategy=engine.strategy_label,
            )
        if (
            engine.policy.transfer_initiative is TransferInitiative.PULL
            or not engine.children
        ):
            return
        targets = [c for c in engine.children if c != skip]
        if not targets:
            return
        if engine.policy.transfer_instant is TransferInstant.LAZY:
            self.pending_lazy.extend(records)
            if self._lazy_timer is None:
                # One aggregation window per burst: the flush fires one
                # period after the first buffered change.
                self._lazy_timer = engine.clock.schedule(
                    engine.policy.lazy_interval, self._lazy_flush
                )
            return
        engine.emission.emit(targets, records)

    def _lazy_flush(self) -> None:
        """Flush of aggregated coherence traffic (lazy transfer instant)."""
        engine = self.engine
        self._lazy_timer = None
        pending, self.pending_lazy = self.pending_lazy, []
        if pending and engine.children:
            engine.emission.emit(engine.children, self.aggregate(pending))

    def aggregate(self, records: List[WriteRecord]) -> List[WriteRecord]:
        """Aggregate a lazy batch: overwrite models keep only the last
        record per key set ("successive updates can be aggregated")."""
        engine = self.engine
        if engine.policy.model not in (
            CoherenceModel.FIFO, CoherenceModel.EVENTUAL
        ):
            return records
        latest: Dict[tuple, WriteRecord] = {}
        order: List[tuple] = []
        for record in records:
            key = record.touched
            if key not in latest:
                order.append(key)
            latest[key] = record
        return [latest[key] for key in order]

    def _periodic_pull(self) -> None:
        engine = self.engine
        try:
            engine.reads.demand()
        finally:
            self._pull_timer = engine.clock.schedule(
                engine.policy.lazy_interval, self._periodic_pull, daemon=True
            )
