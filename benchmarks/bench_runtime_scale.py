"""Throughput of the runtime layer: sharded sweeps and the warm cache.

Acceptance benchmark for the ``repro.runtime`` subsystem:

* sharding a sweep over the scheduler (``jobs>1``) must stay
  **bit-identical** to the serial run and, on multi-core hosts, speed it
  up (the floor scales with the cores actually available — single-core
  CI containers only assert identity);
* a warm-cache re-run must return the identical typed result **without
  invoking the engine at all**, and must beat the cold run by a wide
  margin (the cache read is pure JSON I/O).
"""

import os
import time

import pytest
from conftest import record

import repro.immunity.montecarlo as montecarlo
from repro.obs import registry
from repro.runtime import ResultCache
from repro.study import SweepSpec, run_sweep_study

#: Enough corners x trials for scheduling overhead to amortise.
SWEEP = dict(engine="immunity", trials=400, seed=2009)
SPEC = SweepSpec.from_mapping({
    "technique": ("vulnerable", "baseline", "compact"),
    "cnts_per_trial": (2, 4, 8),
    "max_angle_deg": (5.0, 15.0, 30.0),
})

#: Required warm-cache advantage over recomputing: reading one JSON entry
#: must be far cheaper than 27 corners x 400 Monte Carlo trials.
REQUIRED_CACHE_SPEEDUP = 5.0


def test_sharded_sweep_scaling(benchmark):
    """jobs=N vs jobs=1: bit-identical, faster when cores allow."""
    cores = os.cpu_count() or 1
    jobs = min(4, cores)

    start = time.perf_counter()
    serial = run_sweep_study(SPEC, **SWEEP)
    serial_seconds = time.perf_counter() - start

    sharded = benchmark.pedantic(
        run_sweep_study,
        args=(SPEC,),
        kwargs=dict(jobs=jobs, **SWEEP),
        iterations=1,
        rounds=1,
    )
    sharded_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / sharded_seconds

    record(
        benchmark,
        corners=len(SPEC),
        jobs=jobs,
        cores=cores,
        serial_seconds=round(serial_seconds, 3),
        sharded_seconds=round(sharded_seconds, 3),
        speedup=round(speedup, 2),
        identical_to_serial=sharded == serial,
    )
    print()
    print(f"{len(SPEC)} corners: serial {serial_seconds:.2f}s, "
          f"jobs={jobs} {sharded_seconds:.2f}s -> {speedup:.2f}x "
          f"({cores} cores)")

    # The determinism contract is unconditional; the speedup floor only
    # applies where there are cores to win on.
    assert sharded == serial
    if cores >= 4:
        assert speedup >= 1.5


def test_warm_cache_skips_the_engine(benchmark, tmp_path, monkeypatch):
    """Second run: identical typed result, zero engine invocations."""
    cache = ResultCache(tmp_path / "store")

    start = time.perf_counter()
    cold = run_sweep_study(SPEC, cache=cache, **SWEEP)
    cold_seconds = time.perf_counter() - start
    assert cold.provenance.cache == "miss"

    def poisoned(*args, **kwargs):
        raise AssertionError("engine invoked on a warm cache")

    monkeypatch.setattr(montecarlo, "run_immunity_trials", poisoned)

    hits_before = registry().snapshot()["counters"].get("cache.hits", 0)
    warm = benchmark.pedantic(
        run_sweep_study,
        args=(SPEC,),
        kwargs=dict(cache=cache, **SWEEP),
        iterations=1,
        rounds=3,
    )
    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds
    hits = int(registry().snapshot()["counters"]["cache.hits"] - hits_before)

    record(
        benchmark,
        cold_seconds=round(cold_seconds, 3),
        warm_seconds=round(warm_seconds, 4),
        speedup=round(speedup, 1),
        cache_hits=hits,
        identical_to_cold=warm == cold,
    )
    print()
    print(f"cold {cold_seconds:.2f}s, warm {warm_seconds:.4f}s "
          f"-> {speedup:.0f}x, {hits} hits")

    assert warm.provenance.cache == "hit"
    assert warm == cold
    assert hits >= 1
    assert speedup >= REQUIRED_CACHE_SPEEDUP
