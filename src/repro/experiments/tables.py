"""Experiments T1 and T2: regenerate the paper's two tables.

Table 1 (implementation parameters) is rendered straight from the policy
enums, so the rendered table cannot drift from what the engine actually
implements.  Table 2 (the conference example's strategy) is rendered from
the :meth:`ReplicationPolicy.conference_example` policy object and then
*validated*: the policy is run and its claimed properties are checked.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.exec import run_cached_single
from repro.experiments.harness import ExperimentResult
from repro.replication.policy import TABLE1_ROWS, ReplicationPolicy


def _table1_point(config: Dict[str, Any], seed: int) -> ExperimentResult:
    """Cacheable T1 point (parameter-free; the derived seed is unused)."""
    del config, seed
    return _table1()


def run_table1(cache_dir: Optional[str] = None) -> ExperimentResult:
    """Regenerate Table 1: implementation parameters for replication
    policies."""
    return run_cached_single("t1-table1", _table1_point, {},
                             cache_dir=cache_dir)


def _table1() -> ExperimentResult:
    result = ExperimentResult(
        name="Table 1: Implementation parameters for replication policies",
        headers=["Parameter", "Values", "Meaning"],
    )
    for parameter, values, meaning in TABLE1_ROWS:
        result.add_row(parameter, "\n".join(f"- {v}" for v in values), meaning)
    result.data["parameter_count"] = len(TABLE1_ROWS)
    result.data["value_space"] = 1
    for _, values, _ in TABLE1_ROWS:
        result.data["value_space"] *= len(values)
    result.note(
        f"{len(TABLE1_ROWS)} parameters spanning "
        f"{result.data['value_space']} raw combinations "
        "(plus the two outdate-reaction parameters of Section 3.3)."
    )
    return result


def _table2_point(config: Dict[str, Any], seed: int) -> ExperimentResult:
    """Cacheable T2 point (parameter-free; the derived seed is unused)."""
    del config, seed
    return _table2()


def run_table2(cache_dir: Optional[str] = None) -> ExperimentResult:
    """Regenerate Table 2: replication strategy parameter values for the
    conference-page example."""
    return run_cached_single("t2-table2", _table2_point, {},
                             cache_dir=cache_dir)


def _table2() -> ExperimentResult:
    policy = ReplicationPolicy.conference_example()
    result = ExperimentResult(
        name="Table 2: Replication strategy parameter values for the example",
        headers=["Parameter", "Value"],
    )
    for parameter, value in policy.table2_rows():
        result.add_row(parameter, value)
    result.data["policy"] = policy
    result.data["model"] = policy.model.value
    return result
