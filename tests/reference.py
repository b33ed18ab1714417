"""Scalar reference implementations of the library's two batched engines.

The library computes each of the paper's claims with one batched engine:
the Figure 2 immunity Monte Carlo (:func:`repro.immunity.run_immunity_trials`
over :class:`~repro.immunity.ImmunityChecker`'s array evaluator) and the
transient characterization that stands in for HSPICE
(:func:`repro.circuit.run_transient_batch`, whose NumPy stepper is the
oracle the compiled stepper is tested against).  The loops here are the
executable specification both engines were written from, one tube, one
assignment, one device and one sub-step at a time.  They are plain
functions over the public objects; nothing in ``src/`` calls them.

* :func:`run_reference` integrates one
  :class:`~repro.circuit.SimulationCase`;
  :func:`~repro.circuit.run_transient_batch` must match it byte for
  byte, waveforms and supply charge.
* :func:`source_schedule_reference` plans a compiled batch's stimulus
  one (column, source) pair at a time; the engine, which evaluates each
  distinct stimulus once, must give the same ``changed`` mask and
  source rows, byte for byte.
* :func:`truth_table_reference` and :func:`check_reference` walk each
  tube's ordered crossings; :meth:`ImmunityChecker.truth_table` and
  :meth:`ImmunityChecker.check` must give identical tables and reports.
* :func:`reference_immunity_trials` runs the Monte Carlo one trial at a
  time through that walk (never through ``ImmunityChecker.check``, so
  the batched evaluator is never compared with itself); a fixed seed
  gives a :class:`MonteCarloResult` equal to
  :func:`~repro.immunity.run_immunity_trials`'s.

The oracle tests (``tests/test_simulator_batch.py``,
``tests/test_immunity.py``) and the speed floors
``benchmarks/bench_sim_scale.py`` and ``benchmarks/bench_immunity_scale.py``
import them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuit import GND, VDD, SimulationCase, TransientResult
from repro.circuit.simulator import (
    MINIMUM_NODE_CAPACITANCE,
    CompiledTransientBatch,
    _substep_schedule,
    stability_substep,
)
from repro.core import StandardCell
from repro.errors import ImmunityAnalysisError, SimulationError
from repro.geometry import Rect
from repro.immunity import (
    NOMINAL_CNT_PITCH,
    CNTInstance,
    ImmunityChecker,
    ImmunityReport,
    MonteCarloResult,
    nominal_cnts,
    random_mispositioned_cnts,
)
from repro.logic import TruthTable

# ---------------------------------------------------------------------------
# Transient integration
# ---------------------------------------------------------------------------


def channel_current(transistor, gate_v: float, drain_v: float,
                    source_v: float) -> Tuple[float, float]:
    """Return (current out of drain, current out of source).

    The compact models report a magnitude for a given (vgs, vds); the
    sign convention here is that current flows through the channel from
    the higher-potential terminal to the lower-potential one.
    """
    device = transistor.device
    if device.polarity == "n":
        if drain_v >= source_v:
            magnitude = device.ids(gate_v - source_v, drain_v - source_v)
            return (+magnitude, -magnitude)
        magnitude = device.ids(gate_v - drain_v, source_v - drain_v)
        return (-magnitude, +magnitude)
    # p-type: conducts when the gate is low relative to source
    if drain_v <= source_v:
        magnitude = device.ids(gate_v - source_v, drain_v - source_v)
        return (-magnitude, +magnitude)
    magnitude = device.ids(gate_v - drain_v, source_v - drain_v)
    return (+magnitude, -magnitude)


def run_reference(case: SimulationCase, stop_time: float,
                  time_step: float) -> TransientResult:
    """The scalar reference integrator (one net dict, one device at a
    time) — the shape the batch engine mirrors operation for operation;
    bit-identical to ``run_transient_batch([case], stop_time,
    time_step)[0]``, on the case's own time base if it carries one."""
    stop_time, time_step = case.time_base or (stop_time, time_step)
    if stop_time <= 0 or time_step <= 0:
        raise SimulationError("stop_time and time_step must be positive")
    netlist = case.netlist
    sources = case.sources
    initial_conditions = case.initial_conditions or {}
    vdd = netlist.vdd
    internal = [
        net for net in netlist.nets()
        if net not in (VDD, GND) and net not in sources
    ]
    capacitance = {
        net: max(netlist.node_capacitance(net), MINIMUM_NODE_CAPACITANCE)
        for net in internal
    }
    voltages: Dict[str, float] = {VDD: vdd, GND: 0.0}
    for net in internal:
        voltages[net] = initial_conditions.get(net, 0.0)
    for net, source in sources.items():
        voltages[net] = source.value(0.0)

    sample_count = int(math.ceil(stop_time / time_step)) + 1
    times = np.linspace(0.0, stop_time, sample_count)
    waveforms = {net: np.zeros(sample_count) for net in voltages}
    supply_charge = 0.0

    substep = stability_substep(stop_time, time_step)

    for sample_index, sample_time in enumerate(times):
        for net, value in voltages.items():
            waveforms[net][sample_index] = value
        if sample_index == len(times) - 1:
            break
        segment_end = times[sample_index + 1]
        time = sample_time
        while time < segment_end - 1e-21:
            dt = min(substep, segment_end - time)
            for net, source in sources.items():
                voltages[net] = source.value(time)
            currents = {net: 0.0 for net in internal}
            supply_current = 0.0
            for transistor in netlist.transistors:
                drain_v = voltages[transistor.drain]
                source_v = voltages[transistor.source]
                gate_v = voltages[transistor.gate]
                current = channel_current(transistor, gate_v, drain_v,
                                          source_v)
                # ``current`` flows from the higher-potential terminal to
                # the lower one through the channel.
                if transistor.drain in currents:
                    currents[transistor.drain] -= current[0]
                if transistor.source in currents:
                    currents[transistor.source] -= current[1]
                # Net supply current: devices back-driving Vdd return
                # charge, so contributions must be summed before
                # integrating rather than clamped per device.
                if transistor.drain == VDD:
                    supply_current += current[0]
                if transistor.source == VDD:
                    supply_current += current[1]
            supply_charge += supply_current * dt
            for net in internal:
                voltages[net] += currents[net] * dt / capacitance[net]
                voltages[net] = min(max(voltages[net], -0.1 * vdd), 1.1 * vdd)
            time += dt
    return TransientResult(times, waveforms, supply_charge, vdd)


def source_schedule_reference(compiled: CompiledTransientBatch,
                              stop_time: float, time_step: float
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """``(changed, source_rows)`` of ``compiled._schedule(stop_time,
    time_step)``, one (column, source) pair at a time.

    Each pair's PWL is evaluated over its own group's sub-step start
    times; ``changed`` is the union of every pair's bit-pattern changes
    (a step from ``-0.0`` to ``+0.0`` counts), and the ``(changed, S,
    B)`` rows hold every pair at its group's instants of the changed
    steps, holding its last value past the group's end.
    """
    step_times = [_substep_schedule(*(base or (stop_time, time_step)))[1]
                  for base in compiled.group_bases]
    steps = max(map(len, step_times))
    pairs = [(column, source_i) for column in range(compiled.batch_size)
             for source_i in range(
                 *compiled.source_spans[compiled.column_block[column]])]
    changed = np.zeros(steps, dtype=bool)
    changed[0] = True
    for column, source_i in pairs:
        values = compiled._evaluate_pwl(
            column, source_i, step_times[compiled.column_group[column]])
        bits = values.view(np.uint64)
        changed[1:len(values)] |= bits[1:] != bits[:-1]
    steps_changed = np.flatnonzero(changed)
    rows = np.zeros((len(steps_changed), len(compiled.source_keys),
                     compiled.batch_size))
    for column, source_i in pairs:
        times = step_times[compiled.column_group[column]]
        rows[:, source_i, column] = compiled._evaluate_pwl(
            column, source_i,
            times[np.minimum(steps_changed, len(times) - 1)])
    return changed, rows


# ---------------------------------------------------------------------------
# The immunity checker walk
# ---------------------------------------------------------------------------


def intersection_interval(cnt: CNTInstance,
                          rect: Rect) -> Optional[Tuple[float, float]]:
    """The parameter interval of the tube inside ``rect`` (or ``None``).

    Standard slab clipping (Liang-Barsky); degenerate overlaps shorter
    than 1e-9 of the segment are ignored.
    """
    dx = cnt.end.x - cnt.start.x
    dy = cnt.end.y - cnt.start.y
    t_min, t_max = 0.0, 1.0
    for delta, origin, low, high in (
        (dx, cnt.start.x, rect.x1, rect.x2),
        (dy, cnt.start.y, rect.y1, rect.y2),
    ):
        if abs(delta) < 1e-12:
            if origin < low or origin > high:
                return None
            continue
        t_low = (low - origin) / delta
        t_high = (high - origin) / delta
        if t_low > t_high:
            t_low, t_high = t_high, t_low
        t_min = max(t_min, t_low)
        t_max = min(t_max, t_high)
        if t_min > t_max:
            return None
    if t_max - t_min <= 1e-9:
        return None
    return (t_min, t_max)


@dataclass(frozen=True)
class TubeCrossing:
    """One region crossed by a tube, at interval [t_start, t_end]."""

    t_start: float
    t_end: float
    kind: str           # "contact" | "gate" | "etch"
    label: str = ""     # net for contacts, signal for gates
    device: str = ""    # gate polarity ("nfet"/"pfet")

    @property
    def midpoint(self) -> float:
        return (self.t_start + self.t_end) / 2.0


@dataclass
class TubeAnalysis:
    """Pre-computed crossings of one CNT (assignment-independent)."""

    cnt: CNTInstance
    crossings: List[TubeCrossing] = field(default_factory=list)

    def conducting_pairs(self, assignment: Mapping[str, bool]) -> List[Tuple[str, str]]:
        """Net pairs this tube connects under the given input assignment."""
        ordered = sorted(self.crossings, key=lambda c: c.midpoint)
        pairs: List[Tuple[str, str]] = []
        # Walk contacts left to right; a blocking interval (off gate or etch)
        # between two contacts breaks the conduction.  A metallic tube cannot
        # be turned off by a gate — only an etched region cuts it.
        last_contact: Optional[str] = None
        blocked = False
        for crossing in ordered:
            if crossing.kind == "contact":
                if last_contact is not None and not blocked:
                    pairs.append((last_contact, crossing.label))
                last_contact = crossing.label
                blocked = False
            elif crossing.kind == "etch":
                blocked = True
            elif crossing.kind == "gate":
                if not self.cnt.metallic and not gate_is_on(crossing, assignment):
                    blocked = True
        return pairs


def gate_is_on(crossing: TubeCrossing, assignment: Mapping[str, bool]) -> bool:
    try:
        value = bool(assignment[crossing.label])
    except KeyError:
        raise ImmunityAnalysisError(
            f"No value provided for input {crossing.label!r}"
        ) from None
    return value if crossing.device == "nfet" else not value


def analyse_tube(checker: ImmunityChecker, cnt: CNTInstance) -> TubeAnalysis:
    """Collect the contact/gate/etch crossings of one tube."""
    annotations = checker.annotations
    analysis = TubeAnalysis(cnt=cnt)
    for contact in annotations.contacts:
        interval = intersection_interval(cnt, contact.rect)
        if interval:
            analysis.crossings.append(
                TubeCrossing(interval[0], interval[1], "contact", contact.net)
            )
    for gate in annotations.gates:
        interval = intersection_interval(cnt, gate.rect)
        if interval:
            analysis.crossings.append(
                TubeCrossing(interval[0], interval[1], "gate", gate.signal,
                             gate.device)
            )
    for etch in annotations.etches:
        interval = intersection_interval(cnt, etch.rect)
        if interval:
            analysis.crossings.append(
                TubeCrossing(interval[0], interval[1], "etch")
            )
    return analysis


def output_value(checker: ImmunityChecker, tubes: Sequence[TubeAnalysis],
                 assignment: Mapping[str, bool]) -> Optional[bool]:
    """Value driven on the output under one assignment.

    ``True``/``False`` when the output is cleanly pulled to Vdd/Gnd,
    ``None`` for a floating output or a Vdd-Gnd conflict.
    """
    adjacency: Dict[str, set] = {}

    def connect(net_a: str, net_b: str) -> None:
        adjacency.setdefault(net_a, set()).add(net_b)
        adjacency.setdefault(net_b, set()).add(net_a)

    for tube in tubes:
        for net_a, net_b in tube.conducting_pairs(assignment):
            if net_a != net_b:
                connect(net_a, net_b)

    reached = reachable(checker.output_net, adjacency)
    pulled_high = checker.vdd_net in reached
    pulled_low = checker.gnd_net in reached
    if pulled_high and not pulled_low:
        return True
    if pulled_low and not pulled_high:
        return False
    return None


def reachable(start: str, adjacency: Dict[str, set]) -> set:
    frontier = [start]
    reached = {start}
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency.get(node, ()):
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    return reached


def truth_table_reference(checker: ImmunityChecker,
                          cnts: Sequence[CNTInstance]) -> TruthTable:
    """Truth table via the scalar per-tube walk."""
    tubes = [analyse_tube(checker, cnt) for cnt in cnts]
    return TruthTable.from_function(
        lambda assignment: output_value(checker, tubes, assignment),
        checker.inputs,
    )


def check_reference(checker: ImmunityChecker,
                    nominal: Sequence[CNTInstance],
                    mispositioned: Sequence[CNTInstance],
                    expected: Optional[TruthTable] = None) -> ImmunityReport:
    """:meth:`ImmunityChecker.check`, tabulated by the scalar walk."""
    nominal_table = truth_table_reference(checker, nominal)
    if expected is None:
        expected = nominal_table
    observed = truth_table_reference(checker,
                                     list(nominal) + list(mispositioned))
    failing = tuple(
        assignment
        for assignment, value in observed.rows()
        if value != expected.row(assignment)
    )
    return ImmunityReport(
        cell_name=checker.annotations.cell_name,
        immune=not failing,
        failing_assignments=failing,
        observed=observed,
        expected=expected,
        nominal_matches=nominal_table.equivalent_to(expected),
        mispositioned_count=len(mispositioned),
    )


def reference_immunity_trials(
    cell: StandardCell,
    trials: int = 200,
    cnts_per_trial: int = 4,
    max_angle_deg: float = 15.0,
    seed=2009,
    metallic_fraction: float = 0.0,
) -> MonteCarloResult:
    """:func:`repro.immunity.run_immunity_trials` one trial at a time
    through the scalar walk; equal to it for every seed."""
    if trials <= 0:
        raise ImmunityAnalysisError("trials must be positive")
    annotations = cell.annotations()
    checker = ImmunityChecker(annotations)
    nominal = nominal_cnts(annotations, pitch=NOMINAL_CNT_PITCH)
    expected = cell.gate.expected_truth_table()
    rng = np.random.default_rng(seed)
    nominal_report = check_reference(checker, nominal, [], expected=expected)
    failures = 0
    for _ in range(trials):
        strays = random_mispositioned_cnts(
            annotations, cnts_per_trial, rng, max_angle_deg=max_angle_deg,
            metallic_fraction=metallic_fraction,
        )
        if not check_reference(checker, nominal, strays,
                               expected=expected).immune:
            failures += 1
    return MonteCarloResult(
        annotations.cell_name, cell.technique, trials, cnts_per_trial,
        failures, nominal_report.nominal_matches and nominal_report.immune,
    )
