"""Tests for the experiment-runner CLI module."""

import pytest

from repro.experiments.__main__ import RUNNERS, main
from repro.experiments.harness import ExperimentResult


def test_all_experiment_ids_registered():
    assert set(RUNNERS) == {
        "t1", "t2", "f1", "f2", "f3", "f4",
        "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10",
        "x11", "x12", "x13",
    }


def test_selected_experiment_runs(capsys):
    assert main(["t1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Consistency propagation" in out


@pytest.mark.parametrize("exp_id", ["t1", "t2", "f3"])
def test_command_prints_every_claim_holding(exp_id, capsys):
    assert main([exp_id]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.lstrip().startswith("claim: ")]
    assert verdicts
    assert all(line.endswith(" -- holds") for line in verdicts), verdicts


def test_unknown_id_rejected(capsys):
    assert main(["nope"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiment ids" in out


def test_case_insensitive(capsys):
    assert main(["T1"]) == 0


def test_failed_claim_exits_1_after_printing_every_report(capsys,
                                                          monkeypatch):
    def refuted():
        result = ExperimentResult(name="Refuted", headers=["h"])
        result.claim("the paper's claim", False)
        return result

    monkeypatch.setitem(RUNNERS, "t1", refuted)
    assert main(["t1", "t2"]) == 1
    out = capsys.readouterr().out
    assert "claim: the paper's claim -- FAILS" in out
    assert "Table 2" in out
