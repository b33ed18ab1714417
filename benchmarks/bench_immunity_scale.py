"""Throughput of the batched Monte Carlo immunity engine.

Acceptance benchmark for the vectorized immunity subsystem: at 2000 trials
``run_immunity_trials`` must be at least 10x faster than the seed-era
per-trial loop (``reference_immunity_trials`` in ``tests/reference.py``),
with identical failure counts for a fixed seed — the contract the engine
and its reference share.
"""

import time

import pytest
from conftest import record

from repro.analysis import run_immunity_sweep
from repro.core import assemble_cell
from repro.immunity import run_immunity_trials
from repro.logic import standard_gate
from reference import reference_immunity_trials

TRIALS = 2000
REQUIRED_SPEEDUP = 10.0


@pytest.mark.parametrize("gate_name", ["NAND2", "NAND3"])
def test_batched_engine_speedup(benchmark, gate_name):
    """Batch vs loop at 2000 trials: >=10x faster, identical results."""
    cell = assemble_cell(standard_gate(gate_name), technique="vulnerable",
                         scheme=1)

    start = time.perf_counter()
    loop_result = reference_immunity_trials(
        cell, trials=TRIALS, cnts_per_trial=4, seed=2009
    )
    loop_seconds = time.perf_counter() - start

    batch_result = benchmark.pedantic(
        run_immunity_trials,
        args=(cell,),
        kwargs=dict(trials=TRIALS, cnts_per_trial=4, seed=2009),
        iterations=1,
        rounds=3,
    )
    batch_seconds = benchmark.stats.stats.mean
    speedup = loop_seconds / batch_seconds

    record(
        benchmark,
        gate=gate_name,
        trials=TRIALS,
        loop_seconds=round(loop_seconds, 3),
        batch_seconds=round(batch_seconds, 4),
        speedup=round(speedup, 1),
        failures=batch_result.failures,
        identical_to_loop=batch_result == loop_result,
    )
    print()
    print(f"{gate_name}: loop {loop_seconds:.2f}s, batch {batch_seconds:.3f}s "
          f"-> {speedup:.0f}x, failures {batch_result.failures}/{TRIALS}")

    # The compatibility contract: same seed => byte-identical result fields.
    assert batch_result == loop_result
    assert batch_result.failures > 0
    assert speedup >= REQUIRED_SPEEDUP


def test_sweep_throughput(benchmark):
    """A 3x3 defect-parameter sweep (x3 techniques) on the batched engine."""
    result = benchmark.pedantic(
        run_immunity_sweep,
        kwargs=dict(
            gates=("NAND2",),
            techniques=("vulnerable", "baseline", "compact"),
            cnts_per_trial=(2, 4, 8),
            max_angle_deg=(5.0, 15.0, 30.0),
            trials=500,
            seed=2009,
        ),
        iterations=1,
        rounds=1,
    )
    points = result.points
    total_trials = sum(point.result.trials for point in points)
    seconds = benchmark.stats.stats.mean
    record(
        benchmark,
        points=len(points),
        total_trials=total_trials,
        trials_per_second=round(total_trials / seconds),
    )
    assert len(points) == 27
    assert all(p.result.immune for p in points if p.technique == "compact")
