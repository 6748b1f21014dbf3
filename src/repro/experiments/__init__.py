"""Experiment harness (S15): one module per paper table/figure + sweeps.

Every module exposes ``run(...) -> ExperimentResult`` (or several); each
result states the paper's claims it reproduces with their verdicts, which
``python -m repro.experiments`` prints and ``tests/test_claims.py`` checks.
EXPERIMENTS.md is the experiment index.
"""

from repro.experiments.harness import ExperimentResult

__all__ = ["ExperimentResult"]
