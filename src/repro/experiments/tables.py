"""Experiments T1 and T2: regenerate the paper's two tables.

Table 1 (implementation parameters) is rendered straight from the policy
enums, so the rendered table cannot drift from what the engine actually
implements.  Table 2 (the conference example's strategy) is rendered from
the :meth:`ReplicationPolicy.conference_example` policy object, which F3
runs to check the properties the table claims.
"""

from __future__ import annotations

import math

from repro.experiments.harness import ExperimentResult
from repro.replication.policy import TABLE1_ROWS, ReplicationPolicy


def run_table1() -> ExperimentResult:
    """Regenerate Table 1: implementation parameters for replication
    policies."""
    result = ExperimentResult(
        name="Table 1: Implementation parameters for replication policies",
        headers=["Parameter", "Values", "Meaning"],
    )
    for parameter, values, meaning in TABLE1_ROWS:
        result.add_row(parameter, "\n".join(f"- {v}" for v in values), meaning)
    space = math.prod(len(values) for _, values, _ in TABLE1_ROWS)
    result.claim("Table 1 has 7 parameters", len(TABLE1_ROWS) == 7)
    result.claim(f"they span at least 2*3*2*2*2*2*3 raw combinations "
                 f"({space})", space >= 2 * 3 * 2 * 2 * 2 * 2 * 3)
    return result


def run_table2() -> ExperimentResult:
    """Regenerate Table 2: replication strategy parameter values for the
    conference-page example."""
    policy = ReplicationPolicy.conference_example()
    result = ExperimentResult(
        name="Table 2: Replication strategy parameter values for the example",
        headers=["Parameter", "Value"],
    )
    values = dict(policy.table2_rows())
    for parameter, value in values.items():
        result.add_row(parameter, value)
    result.claim("Store = all", values["Store"] == "all")
    result.claim("Coherence transfer type = partial",
                 values["Coherence transfer type"] == "partial")
    result.claim("the object model is PRAM", policy.model.value == "pram")
    expected = ("update", "all", "single", "push", "partial", "wait",
                "demand")
    result.claim(f"the table shows each of {', '.join(expected)}",
                 all(any(word in value for value in values.values())
                     for word in expected))
    return result
