"""Replication policies: the implementation parameters of Table 1.

A :class:`ReplicationPolicy` is what a Web-object developer sets "at
initialization once the object-based coherence model has been chosen"
(Section 3.3).  It is a frozen value: a different strategy is a new
policy (``dataclasses.replace(policy, field=value)``), which every store
of the object adopts through
:meth:`~repro.core.dso.DistributedSharedObject.set_policy`.  The enums are
the table's value columns verbatim; the module-level :data:`TABLE1_ROWS`
reproduces the table itself and is what the T1 benchmark renders.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import FrozenSet, List, Tuple

from repro.coherence.models import CoherenceModel
from repro.core.interfaces import Role


class Propagation(enum.Enum):
    """How coherence is managed when changes occur (Table 1, row 1)."""

    UPDATE = "update"
    INVALIDATE = "invalidate"


class StoreScope(enum.Enum):
    """Which store layers implement the object-based model (row 2)."""

    PERMANENT = "permanent"
    PERMANENT_AND_OBJECT_INITIATED = "permanent and object-initiated"
    ALL = "all"

    def enforced_roles(self) -> FrozenSet[Role]:
        """Store roles at which the object model is actively enforced.

        Stores outside the scope fall back to eventual coherence -- the
        paper's "weaker coherence, but perhaps offering the benefit of
        higher performance" for the lower layers (design decision D4).
        """
        if self is StoreScope.PERMANENT:
            return frozenset({Role.PERMANENT})
        if self is StoreScope.PERMANENT_AND_OBJECT_INITIATED:
            return frozenset({Role.PERMANENT, Role.OBJECT_INITIATED})
        return frozenset(
            {Role.PERMANENT, Role.OBJECT_INITIATED, Role.CLIENT_INITIATED}
        )


class WriteSet(enum.Enum):
    """Number of simultaneous writers (row 3)."""

    SINGLE = "single"
    MULTIPLE = "multiple"


class TransferInitiative(enum.Enum):
    """Who propagates coherence information (row 4)."""

    PUSH = "push"
    PULL = "pull"


class TransferInstant(enum.Enum):
    """When coherence is managed (row 5)."""

    IMMEDIATE = "immediate"
    LAZY = "lazy"


class AccessTransfer(enum.Enum):
    """How much of the document a store fetches on access (row 6)."""

    PARTIAL = "partial"
    FULL = "full"


class CoherenceTransfer(enum.Enum):
    """How much of the document coherence messages carry (row 7)."""

    NOTIFICATION = "notification"
    PARTIAL = "partial"
    FULL = "full"


class OutdateReaction(enum.Enum):
    """A store's reaction to noticing its replica is outdated (§3.3)."""

    WAIT = "wait"
    DEMAND = "demand"


class PolicyError(ValueError):
    """Raised by :meth:`ReplicationPolicy.validate` for nonsense combos."""


@dataclasses.dataclass(frozen=True)
class ReplicationPolicy:
    """The full per-object replication strategy, as a frozen value.

    Defaults correspond to a strongly-kept single-writer object: PRAM at
    all layers, immediate full push, demand reactions.  Pass every
    parameter to the constructor; to change one later, build the new
    policy with ``dataclasses.replace`` and hand it to ``set_policy``.
    """

    model: CoherenceModel = CoherenceModel.PRAM
    propagation: Propagation = Propagation.UPDATE
    store_scope: StoreScope = StoreScope.ALL
    write_set: WriteSet = WriteSet.SINGLE
    transfer_initiative: TransferInitiative = TransferInitiative.PUSH
    transfer_instant: TransferInstant = TransferInstant.IMMEDIATE
    #: Aggregation period for ``TransferInstant.LAZY`` (seconds).
    lazy_interval: float = 5.0
    access_transfer: AccessTransfer = AccessTransfer.FULL
    coherence_transfer: CoherenceTransfer = CoherenceTransfer.FULL
    object_outdate_reaction: OutdateReaction = OutdateReaction.WAIT
    client_outdate_reaction: OutdateReaction = OutdateReaction.DEMAND

    def validate(self) -> "ReplicationPolicy":
        """Raise :class:`PolicyError` on inconsistent parameter combinations."""
        if self.transfer_instant is TransferInstant.LAZY and self.lazy_interval <= 0:
            raise PolicyError("lazy transfer instant requires lazy_interval > 0")
        if (
            self.transfer_initiative is TransferInitiative.PULL
            and self.coherence_transfer is CoherenceTransfer.NOTIFICATION
        ):
            raise PolicyError(
                "pull initiative cannot use notification transfer: "
                "notifications are inherently pushed"
            )
        if (
            self.model is CoherenceModel.SEQUENTIAL
            and self.store_scope is StoreScope.PERMANENT
            and self.coherence_transfer is CoherenceTransfer.NOTIFICATION
            and self.object_outdate_reaction is OutdateReaction.WAIT
        ):
            # Legal but useless: nothing would ever bring replicas forward.
            raise PolicyError(
                "notification-only with wait reaction below a "
                "permanent-scope sequential object never converges"
            )
        return self

    @functools.cached_property
    def strategy_label(self) -> str:
        """``propagation/initiative/instant/coherence-transfer``, e.g.
        ``update/push/immediate/full``: the name trace events carry.
        Formatted once per policy, however many stores share it."""
        return "/".join(value.value for value in (
            self.propagation, self.transfer_initiative,
            self.transfer_instant, self.coherence_transfer))

    def enforces_at(self, role: Role) -> bool:
        """Whether the object-based model is enforced at a store role."""
        return role in self.store_scope.enforced_roles()

    # -- canned policies -------------------------------------------------------

    @classmethod
    def conference_example(
        cls, lazy_interval: float = 5.0
    ) -> "ReplicationPolicy":
        """The exact Table 2 strategy of the paper's Section 4 example.

        PRAM at all layers, single writer, push, lazy (periodic, every
        ``lazy_interval`` seconds), full access transfer, partial
        coherence transfer, object reaction wait, client reaction demand.
        """
        return cls(
            model=CoherenceModel.PRAM,
            propagation=Propagation.UPDATE,
            store_scope=StoreScope.ALL,
            write_set=WriteSet.SINGLE,
            transfer_initiative=TransferInitiative.PUSH,
            transfer_instant=TransferInstant.LAZY,
            lazy_interval=lazy_interval,
            access_transfer=AccessTransfer.FULL,
            coherence_transfer=CoherenceTransfer.PARTIAL,
            object_outdate_reaction=OutdateReaction.WAIT,
            client_outdate_reaction=OutdateReaction.DEMAND,
        ).validate()

    def table2_rows(self) -> List[Tuple[str, str]]:
        """Render this policy as the (parameter, value) rows of Table 2."""
        instant = self.transfer_instant.value
        if self.transfer_instant is TransferInstant.LAZY:
            instant = "lazy (periodic)"
        return [
            ("Coherence propagation", self.propagation.value),
            ("Store", self.store_scope.value),
            ("Write set", self.write_set.value),
            ("Transfer initiative", self.transfer_initiative.value),
            ("Transfer instant", instant),
            ("Access transfer type", self.access_transfer.value),
            ("Coherence transfer type", self.coherence_transfer.value),
            ("Object-outdate reaction", self.object_outdate_reaction.value),
            ("Client-outdate reaction", self.client_outdate_reaction.value),
        ]


#: Table 1 of the paper, regenerated from the enums so the benchmark that
#: renders it cannot drift from the implementation.
TABLE1_ROWS: List[Tuple[str, List[str], str]] = [
    (
        "Consistency propagation",
        [v.value for v in Propagation],
        "How coherence is managed: either by updating or invalidating "
        "replicas when changes occur on an object.",
    ),
    (
        "Store",
        [v.value for v in StoreScope],
        "Which kind of store implements the object-based coherence model.",
    ),
    (
        "Write set",
        [v.value for v in WriteSet],
        "The number of simultaneous writers.",
    ),
    (
        "Transfer initiative",
        [v.value for v in TransferInitiative],
        "Who is in charge of the propagation of coherence information: "
        "pushed to the replicas, or pulled from other replicas.",
    ),
    (
        "Transfer instant",
        ["immediate", "lazy (periodic or other criteria)"],
        "When coherence is managed: as soon as a change occurs, or "
        "periodically whereby successive updates can be aggregated.",
    ),
    (
        "Access transfer type",
        [v.value for v in AccessTransfer],
        "Whether only part of the Web document or the entire document is "
        "retrieved when accessed.",
    ),
    (
        "Coherence transfer type",
        [v.value for v in CoherenceTransfer],
        "Whether coherence is managed on only part of the Web document, or "
        "on the entire document; notification sends no invalidation or "
        "update, only a message that a change occurred.",
    ),
]
