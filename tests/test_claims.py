"""Every experiment's claims hold: the repository's reproduction gate.

Each experiment states the paper's qualitative claims it reproduces
(who wins, in which regime) beside the run that measures them, through
``ExperimentResult.claim``.  This test runs every experiment id at its
defaults, the seeded single runs and sweeps once more at another seed,
F2 once at the widest store scope, and F3 and X6 once more at the
smaller sizes their earlier tests ran at.
"""

import pytest

from repro.experiments.__main__ import RUNNERS
from repro.replication.policy import StoreScope

#: The one experiment that states no claim: X11's fault grid reports
#: traffic and availability per cell, and no paper claim orders them.
CLAIMLESS = {"x11"}

#: Ids whose run takes a scenario seed (t1 and t2 render from enums).
SEEDED = ("f1", "f2", "f3", "f4",
          "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8")

CASES = (
    [pytest.param(exp_id, {}, id=exp_id) for exp_id in RUNNERS]
    + [pytest.param(exp_id, {"seed": 1}, id=f"{exp_id}-seed1")
       for exp_id in SEEDED]
    + [pytest.param("f2", {"scope": StoreScope.ALL}, id="f2-scope-all"),
       pytest.param("f3", {"updates": 8, "reads": 10},
                    id="f3-updates8-reads10"),
       pytest.param("x6", {"seed": 1, "writes": 12, "n_caches": 3},
                    id="x6-seed1-writes12-caches3")]
)


@pytest.mark.parametrize("exp_id, kwargs", CASES)
def test_claims_hold(exp_id, kwargs):
    result = RUNNERS[exp_id](**kwargs)
    assert not result.failed_claims(), result.render()
    assert result.claims or exp_id in CLAIMLESS, result.render()
