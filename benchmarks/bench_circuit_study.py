"""Per-unique-cell corner reuse in the circuit-study engine.

Acceptance benchmark for the circuit-level yield subsystem: an 8-bit
ripple-carry adder has 72 gate instances but only **two** unique mapped
cells, so

* the cold run must invoke the Monte Carlo immunity engine exactly once
  per unique cell (proved by counting engine invocations, not by
  timing) and characterise every cell's timing in **one** transient
  kernel call, and
* a warm re-run against the populated corner store must execute **zero**
  engine calls, return a bit-identical result, and beat the cold run by
  at least ``REQUIRED_WARM_SPEEDUP``.

Run under pytest-benchmark (``pytest benchmarks/bench_circuit_study.py``)
or standalone to (re)generate the checked-in perf snapshot (a
``repro-bench/v1`` envelope — see ``bench_schema.py``)::

    python benchmarks/bench_circuit_study.py            # writes BENCH_circuit.json
    python benchmarks/bench_circuit_study.py --smoke    # small adder, no floor
"""

import argparse
import time
from pathlib import Path

import repro.cells.characterize as characterize
import repro.immunity.montecarlo as montecarlo
from repro.circuit_study import run_circuit_study
from repro.runtime import ResultCache

CIRCUIT = "adder:8"
TRIALS = 150
DRAWS = 2000
SEED = 2009

#: Required cold-vs-warm advantage: two cached cell corners are pure JSON
#: reads, while the cold run pays two Monte Carlo immunity analyses and
#: two waveform-fitted timing characterisations.
REQUIRED_WARM_SPEEDUP = 3.0

#: The warm hit is timed as the fastest of this many re-runs: it takes
#: tens of milliseconds, so one slow run on a busy host would otherwise
#: decide the floor.
WARM_REPEATS = 3


def run_warm_scenario(cache_dir, circuit=CIRCUIT, trials=TRIALS, draws=DRAWS,
                      timer=None):
    """Cold circuit study, then the warm re-run against the same store.

    Counts engine invocations by wrapping the per-cell Monte Carlo entry
    point and the transient kernel at the name characterisation calls, so "once
    per unique cell, never per instance" and "one kernel call per cold
    circuit" are hard facts, not timing inferences.  ``timer(fn, rounds)
    -> (result, seconds)`` runs ``fn`` ``rounds`` times and returns the
    fastest time; the cold study runs once and the warm re-run
    :data:`WARM_REPEATS` times, and ``timer`` lets the pytest-benchmark
    path own the warm measurement.
    """
    study = dict(circuit=circuit, trials=trials, draws=draws, seed=SEED)
    store = ResultCache(cache_dir)

    calls, kernel_calls = [], []
    real = montecarlo.run_immunity_trials
    real_kernel = characterize.run_transient_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(1)
        return real_kernel(*args, **kwargs)

    if timer is None:
        def timer(fn, rounds):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                result = fn()
                best = min(best, time.perf_counter() - start)
            return result, best

    montecarlo.run_immunity_trials = counting
    characterize.run_transient_batch = counting_kernel
    try:
        cold, cold_seconds = timer(
            lambda: run_circuit_study(cache=store, **study), 1)
        cold_calls, calls[:] = len(calls), ()
        cold_kernel_calls = len(kernel_calls)
        warm, warm_seconds = timer(
            lambda: run_circuit_study(cache=store, **study), WARM_REPEATS)
        warm_calls = len(calls)
    finally:
        montecarlo.run_immunity_trials = real
        characterize.run_transient_batch = real_kernel

    return {
        "benchmark": "circuit_study",
        "engine": "circuit",
        "circuit": circuit,
        "trials": trials,
        "draws": draws,
        "instances": cold.instances,
        "unique_cells": cold.unique_cells,
        "cells_cold_executed": cold_calls,
        "cells_warm_executed": warm_calls,
        "kernel_calls_cold": cold_kernel_calls,
        "cold_status": cold.provenance.cache,
        "warm_status": warm.provenance.cache,
        "bit_identical": warm == cold,
        "functional_yield": cold.functional_yield,
        "critical_path_delay_s": cold.critical_path_delay_s,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
    }


def circuit_envelope(report, floor):
    """The scenario report as a ``repro-bench/v1`` envelope."""
    from bench_schema import bench_envelope

    return bench_envelope(
        name="circuit_study",
        params={"engine": "circuit", "circuit": report["circuit"],
                "trials": report["trials"], "draws": report["draws"],
                "seed": SEED},
        wall_seconds={"cold": report["cold_seconds"],
                      "warm": report["warm_seconds"]},
        ns_per_unit={"unit": "instance",
                     "cold": round(report["cold_seconds"]
                                   / report["instances"] * 1e9),
                     "warm": round(report["warm_seconds"]
                                   / report["instances"] * 1e9)},
        speedup=report["warm_speedup"],
        floor=floor,
        detail=report,
    )


def check_warm_contract(report, enforce_floor=True):
    """The hard assertions shared by pytest and standalone runs."""
    assert report["cold_status"] == "miss"
    assert report["warm_status"] == "hit"
    assert report["instances"] > report["unique_cells"], report
    # Once per unique cell on the cold pass, zero engine work warm.
    assert report["cells_cold_executed"] == report["unique_cells"], report
    assert report["cells_warm_executed"] == 0, report
    # Every cold timing corner rides in one transient kernel call.
    assert report["kernel_calls_cold"] == 1, report
    assert report["bit_identical"] is True, report
    if enforce_floor:
        assert report["warm_speedup"] >= REQUIRED_WARM_SPEEDUP, report


def test_warm_rerun_serves_every_cell_from_the_store(benchmark, tmp_path):
    """adder:8 cold: 2 engine calls and 1 kernel call for 72 instances;
    warm (the fastest of ``WARM_REPEATS`` re-runs): 0, >=3x."""
    from conftest import record

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def warm_timer(fn, rounds):
        result = benchmark.pedantic(fn, iterations=1, rounds=rounds)
        return result, benchmark.stats.stats.min

    # The cold study is plain timing; the warm re-run is the benchmark.
    state = {"first": True}

    def timer(fn, rounds):
        if state.pop("first", None):
            return timed(fn)
        return warm_timer(fn, rounds)

    report = run_warm_scenario(tmp_path / "store", timer=timer)
    measured = dict(report)
    measured.pop("benchmark", None)    # collides with the fixture arg
    record(benchmark, **measured)
    print()
    print(f"{report['circuit']}: {report['instances']} instances / "
          f"{report['unique_cells']} unique cells, cold "
          f"{report['cold_seconds']:.2f}s "
          f"({report['cells_cold_executed']} engine calls), warm "
          f"{report['warm_seconds']:.3f}s "
          f"({report['cells_warm_executed']} calls) -> "
          f"{report['warm_speedup']:.1f}x")
    check_warm_contract(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default=CIRCUIT)
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--draws", type=int, default=DRAWS)
    parser.add_argument("--smoke", action="store_true",
                        help="small adder, skip the speedup floor "
                             "(CI smoke)")
    parser.add_argument("--out", default=None,
                        help="snapshot path (default: repo-root "
                             "BENCH_circuit.json; '-' to skip)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.circuit, args.trials, args.draws = "adder:2", 20, 200

    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        report = run_warm_scenario(Path(scratch) / "store",
                                   circuit=args.circuit,
                                   trials=args.trials,
                                   draws=args.draws)
    check_warm_contract(report, enforce_floor=not args.smoke)
    from bench_schema import write_envelope

    envelope = circuit_envelope(
        report, floor=None if args.smoke else REQUIRED_WARM_SPEEDUP)
    write_envelope(envelope, args.out, "BENCH_circuit.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
