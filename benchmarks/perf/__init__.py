"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory.  ``run.py`` is the one entry point;
``BENCHMARK.json`` at the repo root names the command, the workloads and
every metric.
"""
