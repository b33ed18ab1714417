"""ns-per-corner-step of the vectorized batch transient kernel.

The ROADMAP's raw-speed item wants kernel regressions visible as a
number: this benchmark integrates a batch of topology-identical CNFET
inverter-chain corners through :func:`repro.circuit.run_transient_batch`
and reports the wall cost of one *corner-step* — one corner advanced by
one stability sub-step, the kernel's innermost unit of work.  It is a
tracking benchmark: there is no cached/uncached contrast, so the
envelope's ``speedup``/``floor`` are ``null`` and ``tools/bench_report.py``
reports the ns-per-corner-step drift informationally.

One batch size cannot separate the kernel's two costs, so the detail
also carries a batch sweep ({1, 4, 16, 64, 256} corners over a short
stop time) and its line ``ns/substep = fixed + marginal * batch``:
``marginal_ns_per_corner_step``, the arithmetic each extra corner adds,
is the least-squares slope, and ``fixed_ns_per_substep``, the
per-sub-step dispatch cost every run pays, is read off the smallest
batch (its time less its corners' marginal cost).  The fixed cost is a
small fraction of the batch-256 point, so a least-squares intercept
would let that point's noise decide it, and its sign.

Run under pytest-benchmark (``pytest benchmarks/bench_kernel.py``) or
standalone to (re)generate the checked-in perf snapshot (a
``repro-bench/v1`` envelope — see ``bench_schema.py``)::

    python benchmarks/bench_kernel.py            # writes BENCH_kernel.json
    python benchmarks/bench_kernel.py --smoke    # tiny batch + sweep (CI smoke)
"""

import argparse
import time

import numpy as np

from repro.circuit import (SimulationCase, build_inverter_chain,
                           cnfet_inverter, pulse_source, run_transient_batch)
from repro.circuit.simulator import stability_substep
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters

BATCH = 16
STAGES = 3
STOP_TIME = 200e-12
TIME_STEP = 1e-12
SWEEP_BATCHES = (1, 4, 16, 64, 256)
SWEEP_STOP_TIME = 20e-12     # 10,000 sub-steps at the 2 fs floor
SWEEP_REPEATS = 3


def _cases(batch=BATCH, stages=STAGES):
    """``batch`` topology-identical inverter-chain corners, with supply
    and drive varying per case (exactly what the characterisation sweeps
    feed the kernel)."""
    parameters = calibrated_cnfet_parameters()
    cases = []
    for index in range(batch):
        vdd = 0.85 + 0.3 * (index / max(batch - 1, 1))
        tubes = 4 + (index % 4)
        inverter = cnfet_inverter(tubes, FO4_GATE_WIDTH_NM,
                                  parameters=parameters)
        netlist = build_inverter_chain(inverter, stages=stages, fanout=4,
                                       vdd=vdd)
        initial = {f"n{i + 1}": vdd if i % 2 == 0 else 0.0
                   for i in range(stages)}
        source = pulse_source(vdd, delay=3e-12, rise_time=1e-12,
                              width=8e-12)
        cases.append(SimulationCase(netlist, {"in": source}, initial))
    return cases


def run_kernel_scenario(batch=BATCH, stop_time=STOP_TIME,
                        time_step=TIME_STEP, timer=None):
    """One measured batch integration, normalised to corner-steps.

    A corner-step is one case advanced by one stability sub-step; the
    count is exact (``batch * round(stop_time / substep)``), so the
    ns-per-corner-step figure is a property of the kernel, not of the
    batch geometry.  ``timer(fn) -> (result, seconds)`` lets the
    pytest-benchmark path own the measurement.
    """
    cases = _cases(batch=batch)
    # Warm-up once so one-time costs (NumPy dispatch, allocator) don't
    # pollute the tracking number.
    run_transient_batch(cases, stop_time, time_step)

    if timer is None:
        def timer(fn):
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start

    results, seconds = timer(
        lambda: run_transient_batch(cases, stop_time, time_step))

    substep = stability_substep(stop_time, time_step)
    substeps = round(stop_time / substep)
    corner_steps = batch * substeps
    return {
        "benchmark": "kernel",
        "engine": "transient-batch",
        "batch": batch,
        "stages": STAGES,
        "stop_time_s": stop_time,
        "time_step_s": time_step,
        "substep_s": substep,
        "substeps_per_case": substeps,
        "corner_steps": corner_steps,
        "cases_returned": len(results),
        "wall_seconds": round(seconds, 4),
        "ns_per_corner_step": round(seconds / corner_steps * 1e9, 2),
    }


def run_batch_sweep(batches=SWEEP_BATCHES, stop_time=SWEEP_STOP_TIME,
                    repeats=SWEEP_REPEATS):
    """Time one integration per batch size and fit the two kernel costs.

    Each batch is timed ``repeats`` times after a warm-up and keeps its
    fastest run (host noise only ever adds time).  The least-squares
    slope through ``(batch, ns per sub-step)`` is the marginal cost per
    corner-step; the smallest batch's time less its corners' marginal
    cost is the fixed cost per sub-step.
    """
    substeps = round(stop_time / stability_substep(stop_time, TIME_STEP))
    per_substep = []
    for batch in batches:
        cases = _cases(batch=batch)
        run_transient_batch(cases, stop_time, TIME_STEP)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run_transient_batch(cases, stop_time, TIME_STEP)
            best = min(best, time.perf_counter() - start)
        per_substep.append(best / substeps * 1e9)
    design = np.column_stack([np.ones(len(batches)), np.asarray(batches)])
    (_, marginal), *_ = np.linalg.lstsq(design, np.asarray(per_substep),
                                        rcond=None)
    smallest = int(np.argmin(batches))
    fixed = per_substep[smallest] - marginal * batches[smallest]
    return {
        "sweep_batches": list(batches),
        "sweep_stop_time_s": stop_time,
        "sweep_substeps_per_case": substeps,
        "sweep_ns_per_substep": [round(value, 1) for value in per_substep],
        "fixed_ns_per_substep": round(float(fixed), 1),
        "marginal_ns_per_corner_step": round(float(marginal), 2),
    }


def check_kernel_contract(report):
    """The hard assertions shared by pytest and standalone runs."""
    assert report["cases_returned"] == report["batch"], report
    assert report["substeps_per_case"] > 0, report
    assert report["ns_per_corner_step"] > 0, report
    if "fixed_ns_per_substep" in report:
        assert report["fixed_ns_per_substep"] > 0, report


def kernel_envelope(report):
    """The scenario report as a ``repro-bench/v1`` envelope."""
    from bench_schema import bench_envelope

    return bench_envelope(
        name="kernel",
        params={"engine": "transient-batch", "batch": report["batch"],
                "stages": report["stages"],
                "stop_time_s": report["stop_time_s"],
                "time_step_s": report["time_step_s"]},
        wall_seconds={"batch": report["wall_seconds"]},
        ns_per_unit={"unit": "corner-step",
                     "batch": report["ns_per_corner_step"]},
        speedup=None,
        floor=None,
        detail=report,
    )


def test_kernel_ns_per_corner_step(benchmark, tmp_path):
    """Small batch through the kernel; tracks ns per corner-step."""
    from conftest import record

    def timer(fn):
        result = benchmark.pedantic(fn, iterations=1, rounds=1)
        return result, benchmark.stats.stats.mean

    report = run_kernel_scenario(batch=4, stop_time=40e-12, timer=timer)
    measured = dict(report)
    measured.pop("benchmark", None)    # collides with the fixture arg
    record(benchmark, **measured)
    print()
    print(f"{report['batch']} cases x {report['substeps_per_case']} "
          f"substeps = {report['corner_steps']} corner-steps in "
          f"{report['wall_seconds']:.3f}s -> "
          f"{report['ns_per_corner_step']:.1f} ns/corner-step")
    check_kernel_contract(report)


def test_kernel_fixed_and_marginal_cost():
    """The batch sweep's least-squares split, at smoke size."""
    report = run_batch_sweep(stop_time=4e-12, repeats=1)
    print()
    print(f"{report['fixed_ns_per_substep']:.0f} ns fixed per sub-step + "
          f"{report['marginal_ns_per_corner_step']:.1f} ns per corner-step")
    assert report["fixed_ns_per_substep"] > 0, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=BATCH)
    parser.add_argument("--stop-time", type=float, default=STOP_TIME)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny batch (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="snapshot path (default: repo-root "
                             "BENCH_kernel.json; '-' to skip)")
    args = parser.parse_args(argv)
    sweep = {}
    if args.smoke:
        args.batch, args.stop_time = 4, 40e-12
        sweep = dict(stop_time=4e-12, repeats=1)

    report = run_kernel_scenario(batch=args.batch, stop_time=args.stop_time)
    report.update(run_batch_sweep(**sweep))
    check_kernel_contract(report)
    from bench_schema import write_envelope

    write_envelope(kernel_envelope(report), args.out, "BENCH_kernel.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
