"""Unit tests for replication policies (Table 1) and their validation."""

import itertools

import pytest

from repro.coherence.models import CoherenceModel
from repro.core.interfaces import Role
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
    PolicyError,
    Propagation,
    ReplicationPolicy,
    StoreScope,
    TABLE1_ROWS,
    TransferInitiative,
    TransferInstant,
    WriteSet,
)


class TestValidation:
    def test_defaults_valid(self):
        ReplicationPolicy().validate()

    def test_lazy_requires_positive_interval(self):
        policy = ReplicationPolicy(transfer_instant=TransferInstant.LAZY,
                                   lazy_interval=0.0)
        with pytest.raises(PolicyError):
            policy.validate()

    def test_pull_with_notification_rejected(self):
        policy = ReplicationPolicy(
            transfer_initiative=TransferInitiative.PULL,
            coherence_transfer=CoherenceTransfer.NOTIFICATION,
        )
        with pytest.raises(PolicyError):
            policy.validate()

    def test_validate_returns_self_for_chaining(self):
        policy = ReplicationPolicy()
        assert policy.validate() is policy

    def test_full_axis_space(self):
        """Validate every raw combination of the Table-1 axes x each model."""
        valid = rejected = 0
        for combo in itertools.product(
            CoherenceModel, Propagation, StoreScope, WriteSet,
            TransferInitiative, TransferInstant, AccessTransfer,
            CoherenceTransfer,
        ):
            policy = ReplicationPolicy(
                model=combo[0], propagation=combo[1], store_scope=combo[2],
                write_set=combo[3], transfer_initiative=combo[4],
                transfer_instant=combo[5], access_transfer=combo[6],
                coherence_transfer=combo[7],
            )
            try:
                policy.validate()
                valid += 1
            except PolicyError:
                rejected += 1
        assert valid + rejected == 5 * 2 * 3 * 2 * 2 * 2 * 2 * 3
        assert valid > rejected


class TestStoreScope:
    def test_permanent_scope(self):
        roles = StoreScope.PERMANENT.enforced_roles()
        assert roles == frozenset({Role.PERMANENT})

    def test_middle_scope(self):
        roles = StoreScope.PERMANENT_AND_OBJECT_INITIATED.enforced_roles()
        assert Role.OBJECT_INITIATED in roles
        assert Role.CLIENT_INITIATED not in roles

    def test_all_scope(self):
        roles = StoreScope.ALL.enforced_roles()
        assert len(roles) == 3

    def test_enforces_at(self):
        policy = ReplicationPolicy(store_scope=StoreScope.PERMANENT)
        assert policy.enforces_at(Role.PERMANENT)
        assert not policy.enforces_at(Role.CLIENT_INITIATED)


class TestConferenceExample:
    """The policy must reproduce Table 2 of the paper exactly."""

    def test_values_match_table2(self):
        policy = ReplicationPolicy.conference_example()
        assert policy.model is CoherenceModel.PRAM
        assert policy.propagation is Propagation.UPDATE
        assert policy.store_scope is StoreScope.ALL
        assert policy.write_set is WriteSet.SINGLE
        assert policy.transfer_initiative is TransferInitiative.PUSH
        assert policy.transfer_instant is TransferInstant.LAZY
        assert policy.access_transfer is AccessTransfer.FULL
        assert policy.coherence_transfer is CoherenceTransfer.PARTIAL
        assert policy.object_outdate_reaction is OutdateReaction.WAIT
        assert policy.client_outdate_reaction is OutdateReaction.DEMAND

    def test_table2_rows_render(self):
        rows = ReplicationPolicy.conference_example().table2_rows()
        as_dict = dict(rows)
        assert as_dict["Coherence propagation"] == "update"
        assert as_dict["Store"] == "all"
        assert as_dict["Write set"] == "single"
        assert as_dict["Transfer initiative"] == "push"
        assert as_dict["Transfer instant"] == "lazy (periodic)"
        assert as_dict["Access transfer type"] == "full"
        assert as_dict["Coherence transfer type"] == "partial"
        assert as_dict["Object-outdate reaction"] == "wait"
        assert as_dict["Client-outdate reaction"] == "demand"


class TestTable1:
    def test_seven_parameters(self):
        assert len(TABLE1_ROWS) == 7

    def test_parameter_names_match_paper(self):
        names = [row[0] for row in TABLE1_ROWS]
        assert names == [
            "Consistency propagation",
            "Store",
            "Write set",
            "Transfer initiative",
            "Transfer instant",
            "Access transfer type",
            "Coherence transfer type",
        ]

    def test_values_match_paper(self):
        values = {row[0]: row[1] for row in TABLE1_ROWS}
        assert values["Consistency propagation"] == ["update", "invalidate"]
        assert values["Write set"] == ["single", "multiple"]
        assert values["Transfer initiative"] == ["push", "pull"]
        assert "notification" in values["Coherence transfer type"]

    def test_every_row_has_meaning(self):
        assert all(len(row[2]) > 10 for row in TABLE1_ROWS)
