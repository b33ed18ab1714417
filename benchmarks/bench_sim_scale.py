"""Throughput of the batched transient characterization engine.

Acceptance benchmark for the vectorized transient subsystem, mirroring
``bench_immunity_scale.py``: at a figure-sized batch (128 corners — the
scale of a (drive x load x slew x corner) characterisation grid or a
Figure 7 CNT-count sweep with supply corners) one
:func:`repro.circuit.run_transient_batch` call must be at least 10x
faster than integrating the corners one at a time through the scalar
reference integrator (``TransientSimulator.run_reference``), with
bit-identical waveforms and supply charge for every corner — the contract
the engine and its reference share.
"""

import time

import numpy as np
from conftest import record

from repro.circuit import (
    TransientSimulator,
    build_inverter_chain,
    cnfet_inverter,
    pulse_source,
    run_transient_batch,
)
from repro.circuit.simulator import SimulationCase
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters

BATCH_SIZE = 128
STOP_TIME = 20e-12
TIME_STEP = 0.5e-12
REQUIRED_SPEEDUP = 10.0


def _corner_cases():
    """128 corners of a 3-stage FO4 chain: CNT count x supply voltage."""
    params = calibrated_cnfet_parameters()
    cases = []
    for index in range(BATCH_SIZE):
        tubes = 1 + index % 16
        vdd = (0.9, 1.0, 1.1, 1.2)[index // (BATCH_SIZE // 4)]
        inverter = cnfet_inverter(tubes, FO4_GATE_WIDTH_NM, parameters=params)
        netlist = build_inverter_chain(inverter, stages=3, fanout=4, vdd=vdd)
        cases.append(
            SimulationCase(
                netlist,
                {"in": pulse_source(vdd, delay=4e-12, rise_time=1e-12,
                                    width=8e-12)},
                initial_conditions={"n1": vdd, "n2": 0.0, "n3": vdd},
            )
        )
    return cases


def test_batched_transient_speedup(benchmark):
    """Batch vs loop at 128 corners: >=10x faster, bit-identical results."""
    cases = _corner_cases()

    start = time.perf_counter()
    loop_results = [
        TransientSimulator(case.netlist, case.sources,
                           case.initial_conditions)
        .run_reference(STOP_TIME, TIME_STEP)
        for case in cases
    ]
    loop_seconds = time.perf_counter() - start

    batch_results = benchmark.pedantic(
        run_transient_batch,
        args=(cases, STOP_TIME, TIME_STEP),
        iterations=1,
        rounds=2,
    )
    batch_seconds = benchmark.stats.stats.mean
    speedup = loop_seconds / batch_seconds

    # The compatibility contract: every waveform sample and the supply
    # charge of every corner are byte-identical across the engines.
    identical = all(
        loop.supply_charge == batch.supply_charge
        and all(
            np.array_equal(loop.waveforms[net], batch.waveforms[net])
            for net in loop.waveforms
        )
        for loop, batch in zip(loop_results, batch_results)
    )

    record(
        benchmark,
        corners=BATCH_SIZE,
        loop_seconds=round(loop_seconds, 3),
        batch_seconds=round(batch_seconds, 4),
        speedup=round(speedup, 1),
        identical_to_loop=identical,
    )
    print()
    print(f"{BATCH_SIZE} corners: loop {loop_seconds:.2f}s, "
          f"batch {batch_seconds:.3f}s -> {speedup:.0f}x")

    assert identical
    # Every corner actually switched its first stage (the batch did real
    # work; the slowest corners legitimately do not finish propagating to
    # n3 inside the short window).
    assert all(result.voltage("n1").min() < 0.5 * result.vdd
               for result in batch_results)
    assert speedup >= REQUIRED_SPEEDUP
