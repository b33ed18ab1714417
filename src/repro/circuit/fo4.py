"""FO4 (fan-out-of-4) delay and switching-energy analysis.

Case study 1 of the paper measures the third stage of a five-stage FO4
inverter chain at 1 V.  This module provides two ways to obtain the same
metrics:

* :func:`fo4_metrics` — a fast analytical estimate
  (``delay = k · C_load · Vdd / I_drive``, ``energy = C_load · Vdd²``)
  used by the large parameter sweeps of Figure 7; and
* :func:`fo4_metrics_transient` — a waveform measurement on the actual
  five-stage chain using :mod:`repro.circuit.simulator`, used to sanity
  check the analytical model.

Both report the delay of a representative mid-chain stage loaded by four
copies of itself, which is what "FO4 delay" means.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Sequence, Union

from ..errors import SimulationError
from .inverter import Inverter
from .simulator import (SimulationCase, build_inverter_chain, pulse_source,
                        run_transient_batch)

#: Proportionality constant of the analytical delay estimate.  It cancels in
#: every CNFET/CMOS ratio the paper reports; the absolute value is chosen so
#: the reference CMOS inverter lands in the usual ~20-25 ps FO4 range.
DELAY_FIT_CONSTANT = 0.69


@dataclass(frozen=True)
class FO4Metrics:
    """FO4 figures of one inverter flavour."""

    delay_s: float
    energy_per_cycle_j: float
    load_capacitance_f: float
    drive_current_a: float
    supply_voltage: float

    @property
    def edp(self) -> float:
        """Energy-delay product [J·s]."""
        return self.delay_s * self.energy_per_cycle_j


def fo4_load_capacitance(inverter: Inverter, fanout: int = 4) -> float:
    """Capacitance switched by one FO4 stage: its own drain parasitics plus
    ``fanout`` copies of its input capacitance."""
    return inverter.output_capacitance() + fanout * inverter.input_capacitance()


def fo4_metrics(inverter: Inverter, vdd: float = 1.0, fanout: int = 4) -> FO4Metrics:
    """Analytical FO4 delay and switching energy per cycle."""
    if vdd <= 0:
        raise SimulationError("vdd must be positive")
    load = fo4_load_capacitance(inverter, fanout)
    drive = inverter.drive_current(vdd)
    if drive <= 0:
        raise SimulationError(f"Inverter {inverter.name!r} has no drive at {vdd} V")
    delay = DELAY_FIT_CONSTANT * load * vdd / drive
    # One full cycle charges and discharges the load once: E = C V^2.
    energy = load * vdd * vdd
    return FO4Metrics(
        delay_s=delay,
        energy_per_cycle_j=energy,
        load_capacitance_f=load,
        drive_current_a=drive,
        supply_voltage=vdd,
    )


@dataclass(frozen=True)
class FO4Comparison:
    """CNFET-vs-CMOS gains for one configuration (paper Figure 7 points)."""

    cnfet: FO4Metrics
    cmos: FO4Metrics

    @property
    def delay_gain(self) -> float:
        """How many times faster the CNFET inverter is."""
        return self.cmos.delay_s / self.cnfet.delay_s

    @property
    def energy_gain(self) -> float:
        """How many times less energy per cycle the CNFET inverter uses."""
        return self.cmos.energy_per_cycle_j / self.cnfet.energy_per_cycle_j

    @property
    def edp_gain(self) -> float:
        """Energy-delay-product improvement."""
        return self.cmos.edp / self.cnfet.edp


def compare_fo4(cnfet_inverter: Inverter, cmos_inverter: Inverter,
                vdd: float = 1.0) -> FO4Comparison:
    """Run the analytical FO4 analysis for both flavours at the same supply."""
    return FO4Comparison(
        cnfet=fo4_metrics(cnfet_inverter, vdd),
        cmos=fo4_metrics(cmos_inverter, vdd),
    )


def fo4_metrics_transient(inverter: Inverter, vdd: float = 1.0,
                          stages: int = 5, fanout: int = 4) -> FO4Metrics:
    """FO4 metrics measured on a transient simulation of the inverter chain.

    Builds the paper's five-stage chain where every stage drives ``fanout``
    copies of itself (the extra copies are modelled as load capacitance),
    applies a full-swing step and measures the 50 %-to-50 % propagation
    delay of the middle stage and the total switched charge per cycle.
    """
    return fo4_transient_sweep([inverter], vdd, stages, fanout)[0]


def fo4_transient_sweep(
    inverters: Sequence[Inverter],
    vdd: Union[float, Sequence[float]] = 1.0,
    stages: int = 5,
    fanout: int = 4,
) -> List[FO4Metrics]:
    """Waveform-level FO4 metrics for many inverter corners in one batch.

    The multi-corner counterpart of :func:`fo4_metrics_transient`: every
    corner's chain (a CNT-count/pitch sweep, a supply sweep, or the CMOS
    reference riding along) gets a stimulus timed from its own analytical
    delay estimate, and all chains integrate in a single vectorized
    :func:`~repro.circuit.simulator.run_transient_batch` call on a time
    base that covers the slowest corner at the resolution of the fastest
    — which is how Figure 7's waveform cross-checks stay affordable at
    many corners.

    ``vdd`` is a shared scalar or one supply per corner.
    """
    if not inverters:
        raise SimulationError("fo4_transient_sweep needs >= 1 inverter")
    if stages < 3:
        raise SimulationError("The FO4 chain needs at least 3 stages")
    try:
        supplies = ([float(vdd)] * len(inverters)
                    if isinstance(vdd, numbers.Real)
                    else [float(value) for value in vdd])
    except TypeError:
        raise SimulationError(
            f"vdd must be a number or an iterable of numbers, got {vdd!r}"
        ) from None
    if len(supplies) != len(inverters):
        raise SimulationError(
            f"Got {len(inverters)} corners but {len(supplies)} supplies"
        )

    cases: List[SimulationCase] = []
    estimates: List[float] = []
    for inverter, supply in zip(inverters, supplies):
        estimate = fo4_metrics(inverter, supply, fanout).delay_s
        source = pulse_source(supply, delay=2 * estimate,
                              rise_time=max(estimate * 0.1, 1.0e-13),
                              width=estimate * (stages + 6))
        # Odd stages invert: precondition internal nodes to their DC
        # values for a low input.
        initial = {f"n{stage + 1}": supply if stage % 2 == 0 else 0.0
                   for stage in range(stages)}
        cases.append(SimulationCase(
            build_inverter_chain(inverter, stages, fanout, supply),
            {"in": source}, initial_conditions=initial,
        ))
        estimates.append(estimate)
    slowest = max(estimates)
    stop = 2 * slowest + 2 * (slowest * (stages + 6))
    time_step = max(min(estimates) / 50.0, 1.0e-14)
    results = run_transient_batch(cases, stop_time=stop, time_step=time_step)
    return [
        FO4Metrics(
            delay_s=result.propagation_delay("n2", "n3"),
            energy_per_cycle_j=result.supply_energy / stages,
            load_capacitance_f=fo4_load_capacitance(inverter, fanout),
            drive_current_a=inverter.drive_current(supply),
            supply_voltage=supply,
        )
        for inverter, supply, result in zip(inverters, supplies, results)
    ]
