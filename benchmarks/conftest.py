"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and records the
paper-reported value next to the measured one in ``benchmark.extra_info`` so
the JSON output doubles as the reproduction record.

The engine floors (``bench_sim_scale.py``, ``bench_immunity_scale.py``)
time the batched engines against the scalar references in
``tests/reference.py``, so ``tests/`` goes on ``sys.path`` once here.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def record(benchmark, **values):
    """Attach paper-vs-measured values to a benchmark result."""
    for key, value in values.items():
        benchmark.extra_info[key] = value
