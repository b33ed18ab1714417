"""Standard-cell electrical characterisation.

Two complementary characterisation paths feed the gate-level analysis and
the Liberty export:

* :func:`characterize_gate` — the fast **logical-effort abstraction**: a
  sized gate reduced to input capacitance, worst-path drive resistance and
  output parasitics (:class:`~repro.circuit.logical_effort.CellTimingModel`).
* :func:`characterize_sweep` — the **measured path**: every cell is
  flattened to a transistor-level netlist
  (:func:`gate_transistor_netlist`), stimulated with a sensitised input
  pulse, and its 50 %-to-50 % delays and supply energy are measured on
  waveforms from the vectorized batch transient engine
  (:func:`~repro.circuit.simulator.run_transient_batch`).  Each cell's
  ``(drive × load × slew × corner)`` grid is one :class:`CellGrid` value
  with its own analytical time base, and one kernel call integrates the
  grids of every cell; :func:`characterize_cases` integrates any subset
  of one grid bit-identically, which is how sweeps shard and recompute.
  :func:`measured_timing_models` distils the grids back into
  linear-delay :class:`CellTimingModel` entries so the Liberty export
  can carry measured rather than estimated delays
  (``build_library(timing_source="measured")``).

Either technology can be instantiated:

* **CNFET cells** instantiate :class:`~repro.devices.cnfet.CNFET` devices;
  the number of tubes per device follows from the drawn width and the CNT
  pitch (the library is built at the optimal ~5 nm pitch found in Case
  study 1, which is how the paper sizes its cells "at their optimal EDP
  point").
* **CMOS cells** instantiate 65 nm :class:`~repro.devices.mosfet.MOSFET`
  devices with the conventional 1.4× pMOS up-sizing.

Drive resistance is the worst of the pull-up and pull-down path
resistances; input capacitance is per pin; output parasitics sum the drain
capacitances of devices on the output node.

Batch-axis semantics of the sweep
---------------------------------
``characterize_sweep`` lays its grid out in ``itertools.product`` order —
``(cell, drive, load, slew, corner)``, last axis fastest — and
:meth:`CharacterizationSweep.grid` reshapes the flat point list back into
that dense array:

>>> from repro.cells.characterize import characterize_sweep, cnfet_technology
>>> sweep = characterize_sweep(
...     gate_names=("INV",), drive_strengths=(1.0, 2.0),
...     load_capacitances_f=(1e-15, 4e-15), input_slews_s=(5e-12,),
...     corners={"tt": cnfet_technology()})
>>> sweep.grid().shape   # (cells, drives, loads, slews, corners)
(1, 2, 2, 1, 1)
>>> point = sweep.point("INV", 1.0, 4e-15, 5e-12, "tt")
>>> point.delay_fall_s > 0 and point.energy_per_cycle_j > 0
True
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit.logical_effort import CellTimingModel
from ..circuit.netlist import GND, VDD, TransistorNetlist
from ..circuit.simulator import (
    SimulationCase,
    TransientResult,
    constant_source,
    pulse_source,
    run_transient_batch,
)
from ..devices.calibration import calibrated_cnfet_parameters
from ..devices.cnfet import CNFET, CNFETParameters
from ..devices.mosfet import MOSFET, MOSFETParameters, NMOS_65, PMOS_65
from ..errors import CharacterizationError
from ..logic.network import GateNetworks, SPLeaf, SPNode, SPParallel, SPSeries
from ..core.sizing import CellSizing, size_gate
from ..tech.lambda_rules import LAMBDA_NM_65

#: CNT pitch the standard-cell library is built at (the optimal range found
#: in Case study 1 is 4.5-5.5 nm).
LIBRARY_CNT_PITCH_NM = 5.0


@dataclass(frozen=True)
class TechnologyConfig:
    """Which devices a characterisation run instantiates."""

    name: str                       # "cnfet" | "cmos"
    vdd: float = 1.0
    lambda_nm: float = LAMBDA_NM_65
    cnt_pitch_nm: float = LIBRARY_CNT_PITCH_NM
    cnfet_parameters: Optional[CNFETParameters] = None
    nmos_parameters: MOSFETParameters = NMOS_65
    pmos_parameters: MOSFETParameters = PMOS_65
    pmos_ratio: float = 1.4

    def __post_init__(self):
        if self.name not in ("cnfet", "cmos"):
            raise CharacterizationError(f"Unknown technology {self.name!r}")


def cnfet_technology(vdd: float = 1.0,
                     pitch_nm: float = LIBRARY_CNT_PITCH_NM) -> TechnologyConfig:
    """The calibrated CNFET platform."""
    return TechnologyConfig(
        name="cnfet", vdd=vdd, cnt_pitch_nm=pitch_nm,
        cnfet_parameters=calibrated_cnfet_parameters(),
    )


def cmos_technology(vdd: float = 1.0) -> TechnologyConfig:
    """The reference 65 nm CMOS platform."""
    return TechnologyConfig(name="cmos", vdd=vdd)


def device_for_width(width_factor: float, polarity: str,
                     tech: TechnologyConfig):
    """Instantiate the device of one transistor given its width as a
    multiple of the unit (INV1X) device.

    Section IV sizes every cell "with reference to the smallest inverter
    (INV1X) realizable by the chosen 65 nm technology node", so the
    electrical unit is the INV1X device of each platform:

    * CNFET: the FO4-calibrated inverter device (gate width
      ``FO4_GATE_WIDTH_NM`` populated at the optimal pitch); a ``k×`` wider
      device carries ``k×`` as many tubes.
    * CMOS: the 200 nm (1.4 × 280 nm for pMOS) minimum inverter device.
    """
    from ..devices.calibration import CMOS_NMOS_WIDTH_NM, FO4_GATE_WIDTH_NM

    if width_factor <= 0:
        raise CharacterizationError("width_factor must be positive")
    if tech.name == "cnfet":
        unit_tubes = max(1, int(round(FO4_GATE_WIDTH_NM / tech.cnt_pitch_nm)))
        tubes = max(1, int(round(width_factor * unit_tubes)))
        return CNFET(
            polarity,
            num_tubes=tubes,
            gate_width_nm=width_factor * FO4_GATE_WIDTH_NM,
            pitch_nm=tech.cnt_pitch_nm,
            parameters=tech.cnfet_parameters or calibrated_cnfet_parameters(),
        )
    parameters = tech.nmos_parameters if polarity == "n" else tech.pmos_parameters
    width_nm = width_factor * CMOS_NMOS_WIDTH_NM
    if polarity == "p":
        width_nm *= tech.pmos_ratio
    return MOSFET(polarity, width_nm, parameters)


def _worst_path_resistance(tree: SPNode, width_factors: List[float], polarity: str,
                           tech: TechnologyConfig) -> float:
    """Worst-case end-to-end resistance of a sized network."""
    index = {"value": 0}

    def visit(node: SPNode) -> float:
        if isinstance(node, SPLeaf):
            width_factor = width_factors[index["value"]]
            index["value"] += 1
            device = device_for_width(width_factor, polarity, tech)
            return device.effective_resistance(tech.vdd)
        if isinstance(node, SPSeries):
            return sum(visit(child) for child in node.children)
        if isinstance(node, SPParallel):
            return max(visit(child) for child in node.children)
        raise CharacterizationError(f"Unsupported SP node {type(node).__name__}")

    return visit(tree)


def characterize_gate(
    gate: GateNetworks,
    tech: TechnologyConfig,
    unit_width: float = 4.0,
    drive_strength: float = 1.0,
    extra_output_capacitance: float = 0.0,
) -> CellTimingModel:
    """Characterise one gate at one drive strength for one technology.

    ``extra_output_capacitance`` lets callers add extracted wiring
    parasitics from the physical layout.
    """
    sizing = size_gate(gate, unit_width, drive_strength)

    # Device widths are produced by the sizing rule in λ; the electrical
    # models work in multiples of the INV1X unit device.
    def factor(width_lambda: float) -> float:
        return width_lambda / unit_width

    # Input capacitance per pin: one PUN device and one PDN device hang off
    # each input.  Use the average over pins (pins of symmetric gates are
    # identical; asymmetric gates differ only marginally).
    input_caps: Dict[str, float] = {name: 0.0 for name in gate.inputs}
    for transistor in gate.pun.transistors:
        device = device_for_width(factor(sizing.pun_widths[transistor.name]), "p", tech)
        input_caps[transistor.gate] += device.gate_capacitance()
    for transistor in gate.pdn.transistors:
        device = device_for_width(factor(sizing.pdn_widths[transistor.name]), "n", tech)
        input_caps[transistor.gate] += device.gate_capacitance()
    input_capacitance = sum(input_caps.values()) / max(1, len(input_caps))

    pun_factors = [factor(sizing.pun_widths[t.name]) for t in gate.pun.transistors]
    pdn_factors = [factor(sizing.pdn_widths[t.name]) for t in gate.pdn.transistors]
    pull_up_resistance = _worst_path_resistance(gate.pun_tree, pun_factors, "p", tech)
    pull_down_resistance = _worst_path_resistance(gate.pdn_tree, pdn_factors, "n", tech)
    drive_resistance = max(pull_up_resistance, pull_down_resistance)

    # Output parasitics: drain capacitance of every device whose drain or
    # source touches the output net.
    parasitic = extra_output_capacitance
    for transistor, width_table, polarity in (
        *((t, sizing.pun_widths, "p") for t in gate.pun.transistors),
        *((t, sizing.pdn_widths, "n") for t in gate.pdn.transistors),
    ):
        if "out" in (transistor.source, transistor.drain):
            device = device_for_width(factor(width_table[transistor.name]), polarity, tech)
            parasitic += device.drain_capacitance()

    return CellTimingModel(
        cell_type=gate.name,
        drive_strength=drive_strength,
        input_capacitance=input_capacitance,
        drive_resistance=drive_resistance,
        parasitic_capacitance=parasitic,
    )


# ---------------------------------------------------------------------------
# Measured characterisation: transistor netlists + the batch sweep
# ---------------------------------------------------------------------------

#: Load points used when distilling measured delays into a linear model.
MEASURED_LOADS_F: Tuple[float, ...] = (1.0e-15, 4.0e-15)

#: Input slew used for the measured timing models.
MEASURED_SLEW_S = 5.0e-12


def gate_transistor_netlist(
    gate: GateNetworks,
    tech: TechnologyConfig,
    unit_width: float = 4.0,
    drive_strength: float = 1.0,
    load_capacitance: float = 0.0,
    name: Optional[str] = None,
) -> TransistorNetlist:
    """Flatten one sized gate into a simulatable transistor netlist.

    PUN devices sit between ``vdd`` and ``out``, PDN devices between
    ``gnd`` and ``out``; the internal nets of the two series-parallel
    networks are prefixed (``pu_``/``pd_``) so they cannot collide.  The
    device of every transistor comes from :func:`device_for_width` at its
    sized width, so the netlist embodies one (technology, drive) corner
    and an optional output load.
    """
    sizing = size_gate(gate, unit_width, drive_strength)
    netlist = TransistorNetlist(
        name or f"{gate.name}_{drive_strength:g}X", vdd=tech.vdd
    )

    def lowered(net: str, prefix: str) -> str:
        if net in (VDD, GND, "out") or net in gate.inputs:
            return net
        return f"{prefix}{net}"

    for transistor in gate.pun.transistors:
        device = device_for_width(
            sizing.pun_widths[transistor.name] / unit_width, "p", tech
        )
        netlist.add_transistor(
            transistor.name, device, gate=transistor.gate,
            drain=lowered(transistor.drain, "pu_"),
            source=lowered(transistor.source, "pu_"),
        )
    for transistor in gate.pdn.transistors:
        device = device_for_width(
            sizing.pdn_widths[transistor.name] / unit_width, "n", tech
        )
        netlist.add_transistor(
            transistor.name, device, gate=transistor.gate,
            drain=lowered(transistor.drain, "pd_"),
            source=lowered(transistor.source, "pd_"),
        )
    if load_capacitance > 0:
        netlist.add_capacitor("CLOAD", "out", load_capacitance)
    netlist.declare_io(list(gate.inputs), ["out"])
    return netlist


def sensitizing_assignment(gate: GateNetworks, pin: str) -> Dict[str, bool]:
    """Side-input values under which toggling ``pin`` toggles the output.

    For the negation-free (positive-unate) pull-down functions of the
    standard gates, the sensitised output always *falls* when ``pin``
    rises, which is what the characterisation stimulus relies on.
    """
    if pin not in gate.inputs:
        raise CharacterizationError(
            f"Gate {gate.name!r} has no input {pin!r}; inputs: {gate.inputs}"
        )
    others = [name for name in gate.inputs if name != pin]
    for bits in itertools.product((False, True), repeat=len(others)):
        assignment = dict(zip(others, bits))
        low = gate.output_value({pin: False, **assignment})
        high = gate.output_value({pin: True, **assignment})
        if low is not None and high is not None and low != high:
            return assignment
    raise CharacterizationError(
        f"No side-input assignment sensitises {pin!r} of {gate.name!r}"
    )


@dataclass(frozen=True)
class CellSweepPoint:
    """Measured figures of one (cell, drive, load, slew, corner) corner."""

    cell: str
    drive_strength: float
    load_capacitance_f: float
    input_slew_s: float
    corner: str
    vdd: float
    delay_rise_s: float          # input fall -> output rise
    delay_fall_s: float          # input rise -> output fall
    energy_per_cycle_j: float    # supply energy of one full output cycle

    @property
    def worst_delay_s(self) -> float:
        return max(self.delay_rise_s, self.delay_fall_s)


@dataclass
class CharacterizationSweep:
    """The dense result grid of :func:`characterize_sweep`.

    ``points`` is flat in ``itertools.product`` order over
    ``(cells, drive_strengths, loads, slews, corners)`` — last axis
    fastest — and :meth:`grid` reshapes any per-point metric back into the
    dense 5-D array.  When the cells sit on different drive axes,
    ``drive_strengths`` holds one axis per cell and the drive index of
    :meth:`grid` counts along each cell's own axis.
    """

    cells: Tuple[str, ...]
    drive_strengths: Tuple[float, ...]
    load_capacitances_f: Tuple[float, ...]
    input_slews_s: Tuple[float, ...]
    corners: Tuple[str, ...]
    points: List[CellSweepPoint]

    @property
    def shape(self) -> Tuple[int, int, int, int, int]:
        cells, loads = len(self.cells), len(self.load_capacitances_f)
        slews, corners = len(self.input_slews_s), len(self.corners)
        drives = len(self.points) // (cells * loads * slews * corners)
        return (cells, drives, loads, slews, corners)

    def grid(self, metric: str = "worst_delay_s") -> np.ndarray:
        """Any per-point metric as a ``(cell, drive, load, slew, corner)``
        array (``metric`` names a :class:`CellSweepPoint` attribute)."""
        values = [getattr(point, metric) for point in self.points]
        return np.array(values).reshape(self.shape)

    def point(self, cell: str, drive_strength: float, load_capacitance_f: float,
              input_slew_s: float, corner: str) -> CellSweepPoint:
        """Look one grid point up by its coordinates."""
        coordinates = (cell.upper(), drive_strength, load_capacitance_f,
                       input_slew_s, corner)
        for point in self.points:
            if (point.cell, point.drive_strength, point.load_capacitance_f,
                    point.input_slew_s, point.corner) == coordinates:
                return point
        raise CharacterizationError(
            f"No sweep point ({cell}, {drive_strength}, "
            f"{load_capacitance_f}, {input_slew_s}, {corner})"
        )


@dataclass(frozen=True)
class CellGrid:
    """One cell's ``(drive × load × slew × corner)`` characterisation grid.

    ``corners`` is a tuple of ``(name, TechnologyConfig)`` pairs.  Cases
    are numbered in ``itertools.product`` order over ``(drives, loads,
    slews, corners)`` — last axis fastest — the order of one cell's block
    of :attr:`CharacterizationSweep.points`.

    Every case of a grid integrates on one shared time base
    (:meth:`time_base`), derived analytically from the **whole** grid, so
    any subset of its cases (:meth:`cases`) lands on bit-identical
    waveforms.  That is what lets the runtime shard a grid across workers
    and recompute only the corners a store lacks, and why cache addresses
    carry the time base as their context: two grids may share a corner's
    result iff they agree on it.
    """

    gate: str
    drives: Tuple[float, ...]
    loads: Tuple[float, ...]
    slews: Tuple[float, ...]
    corners: Tuple[Tuple[str, TechnologyConfig], ...]
    unit_width: float = 4.0
    switched_pin: Optional[str] = None

    def __post_init__(self):
        for axis in ("drives", "loads", "slews", "corners"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if not (self.drives and self.loads and self.slews and self.corners):
            raise CharacterizationError(
                f"The grid of {self.gate!r} needs non-empty axes"
            )

    def __len__(self) -> int:
        return len(self._labels)

    @functools.cached_property
    def _networks(self) -> GateNetworks:
        from ..logic.functions import standard_gate

        return standard_gate(self.gate)

    @functools.cached_property
    def _labels(self) -> List[Tuple[float, float, float,
                                    Tuple[str, TechnologyConfig]]]:
        return list(itertools.product(self.drives, self.loads, self.slews,
                                      self.corners))

    @functools.cached_property
    def _time_base(self) -> Tuple[str, float, float, float, float]:
        gate = self._networks
        # The estimate of a case depends on its drive, corner and load
        # only, so one analytical model per (drive, corner) serves them.
        models = [
            characterize_gate(gate, tech, unit_width=self.unit_width,
                              drive_strength=drive)
            for drive in self.drives for _, tech in self.corners
        ]
        estimates = [max(model.stage_delay(load), 1.0e-13)
                     for model in models for load in self.loads]
        # The pulse must be slow enough for the laziest case and sampled
        # finely enough for the snappiest one.
        slowest, max_slew = max(estimates), max(self.slews)
        delay = max(6.0 * slowest, 2.0 * max_slew)
        width = max(10.0 * slowest, 4.0 * max_slew)
        stop = (delay + 2.0 * max_slew + width
                + max(10.0 * slowest, 2.0 * max_slew))
        time_step = max(min(min(estimates) / 20.0, min(self.slews) / 4.0),
                        stop / 8000.0, 1.0e-14)
        pin = self.switched_pin or gate.inputs[0]
        return pin, delay, width, stop, time_step

    def time_base(self) -> Tuple[str, float, float, float, float]:
        """``(switched pin, pulse delay, pulse width, stop time, time
        step)`` shared by every case — analytical, no netlists built, and
        computed once per grid object."""
        return self._time_base

    def cases(self, indices: Sequence[int]) -> List[SimulationCase]:
        """The simulation cases at ``indices``; only their netlists are
        built.  Each carries the grid's ``(stop, time step)`` as its
        ``time_base``."""
        gate = self._networks
        pin, delay, width, stop, time_step = self._time_base
        sides = sensitizing_assignment(gate, pin)
        built: List[SimulationCase] = []
        for index in indices:
            drive, load, slew, (_, tech) = self._label(index)
            netlist = gate_transistor_netlist(
                gate, tech, unit_width=self.unit_width, drive_strength=drive,
                load_capacitance=load,
            )
            vdd = tech.vdd
            sources = {pin: pulse_source(vdd, delay=delay, rise_time=slew,
                                         width=width)}
            for side, value in sides.items():
                sources[side] = constant_source(vdd if value else 0.0)
            initial = {"out": vdd}
            for net in netlist.nets():
                if net.startswith("pu_"):
                    initial[net] = vdd
                elif net.startswith("pd_"):
                    initial[net] = 0.0
            built.append(SimulationCase(netlist, sources, initial,
                                        time_base=(stop, time_step)))
        return built

    def _label(self, index: int):
        if not 0 <= index < len(self):
            raise CharacterizationError(
                f"Case index {index} outside the {len(self)}-case grid of "
                f"{self.gate!r}"
            )
        return self._labels[index]

    def _point(self, index: int, result: TransientResult) -> CellSweepPoint:
        """Reduce the waveform of case ``index`` to its 50 %-to-50 %
        delays and supply energy."""
        drive, load, slew, (corner, tech) = self._label(index)
        pin, level = self._time_base[0], tech.vdd / 2.0
        in_rise = result.crossing_time(pin, level, rising=True)
        out_fall = result.crossing_time("out", level, rising=False,
                                        after=in_rise)
        in_fall = result.crossing_time(pin, level, rising=False,
                                       after=out_fall)
        out_rise = result.crossing_time("out", level, rising=True,
                                        after=in_fall)
        return CellSweepPoint(
            cell=self._networks.name,
            drive_strength=drive,
            load_capacitance_f=load,
            input_slew_s=slew,
            corner=corner,
            vdd=tech.vdd,
            delay_rise_s=out_rise - in_fall,
            delay_fall_s=out_fall - in_rise,
            energy_per_cycle_j=result.supply_energy,
        )


def _measure(selections: Sequence[Tuple[CellGrid, Sequence[int]]]
             ) -> List[List[CellSweepPoint]]:
    """Integrate the selected cases of several grids in **one** kernel
    call — each case on its own grid's time base — and reduce the
    waveforms: one point list per ``(grid, indices)`` selection, in index
    order."""
    cases = [case for grid, indices in selections
             for case in grid.cases(indices)]
    stop, time_step = cases[0].time_base
    results = iter(run_transient_batch(cases, stop_time=stop,
                                       time_step=time_step))
    return [[grid._point(index, next(results)) for index in indices]
            for grid, indices in selections]


def _drive_axes(gate_names: Sequence[str],
                drive_strengths) -> List[Tuple[float, ...]]:
    """One drive axis per cell: ``drive_strengths`` itself when it is a
    single axis, else its per-cell axes (one per cell, all of one
    length)."""
    if not gate_names:
        raise CharacterizationError("characterize_sweep needs >= 1 cell")
    if all(isinstance(drive, numbers.Real) for drive in drive_strengths):
        return [tuple(drive_strengths)] * len(gate_names)
    axes = [tuple(axis) for axis in drive_strengths]
    if len(axes) != len(gate_names) or len({len(axis) for axis in axes}) > 1:
        raise CharacterizationError(
            "Per-cell drive axes need one axis per cell, all of one length"
        )
    return axes


def characterize_sweep(
    gate_names: Sequence[str] = ("INV", "NAND2"),
    drive_strengths: Sequence = (1.0, 2.0),
    load_capacitances_f: Sequence[float] = MEASURED_LOADS_F,
    input_slews_s: Sequence[float] = (MEASURED_SLEW_S,),
    corners: Optional[Mapping[str, TechnologyConfig]] = None,
    unit_width: float = 4.0,
    switched_pin: Optional[str] = None,
) -> CharacterizationSweep:
    """Measure every cell across a (drive × load × slew × corner) grid.

    Each cell's :class:`CellGrid` is lowered to
    :class:`~repro.circuit.simulator.SimulationCase` corners — device
    sizes per drive, explicit output capacitors per load, stimulus edges
    per slew, devices/supply per corner — on that cell's own time base,
    and the grids of **all** cells integrate in one vectorized kernel
    call; the per-corner waveforms are then reduced to rise / fall delay
    and energy.

    ``drive_strengths`` is the drive axis of every cell, or one axis per
    cell (aligned with ``gate_names``, all of one length), which lets one
    call measure cells that each sit at their own drives — the cells of a
    mapped circuit (:func:`measured_timing_models`).
    """
    corners = dict(corners) if corners else {"nominal": cnfet_technology()}
    axes = _drive_axes(gate_names, drive_strengths)
    grids = [
        CellGrid(gate_name, axis, load_capacitances_f, input_slews_s,
                 tuple(corners.items()), unit_width, switched_pin)
        for gate_name, axis in zip(gate_names, axes)
    ]
    return CharacterizationSweep(
        cells=tuple(grid._networks.name for grid in grids),
        drive_strengths=(axes[0] if axes.count(axes[0]) == len(axes)
                         else tuple(axes)),
        load_capacitances_f=tuple(load_capacitances_f),
        input_slews_s=tuple(input_slews_s),
        corners=tuple(corners),
        points=[point for points in
                _measure([(grid, range(len(grid))) for grid in grids])
                for point in points],
    )


def characterize_cases(grid: CellGrid,
                       case_indices: Sequence[int]) -> List[CellSweepPoint]:
    """Evaluate the cases ``case_indices`` of one cell's grid.

    Only the selected cases are built and integrated, on the **whole**
    grid's time base, so the returned points are bit-identical to the
    corresponding points of :func:`characterize_sweep` over the same
    grid.  This is the primitive the runtime scheduler shards transient
    sweeps on.
    """
    return _measure([(grid, case_indices)])[0]


def format_characterization(sweep: CharacterizationSweep) -> str:
    """Render a characterisation sweep as a text table."""
    header = (
        f"{'cell':>6} {'drive':>6} {'load(fF)':>9} {'slew(ps)':>9} "
        f"{'corner':>8} {'t_rise(ps)':>11} {'t_fall(ps)':>11} {'E(fJ)':>8}"
    )
    lines = [header, "-" * len(header)]
    for p in sweep.points:
        lines.append(
            f"{p.cell:>6} {p.drive_strength:>5g}X {p.load_capacitance_f * 1e15:>9.2f} "
            f"{p.input_slew_s * 1e12:>9.2f} {p.corner:>8} "
            f"{p.delay_rise_s * 1e12:>11.2f} {p.delay_fall_s * 1e12:>11.2f} "
            f"{p.energy_per_cycle_j * 1e15:>8.3f}"
        )
    return "\n".join(lines)


def measured_timing_models(
    cells: Sequence[Tuple[GateNetworks, Sequence[float]]],
    tech: TechnologyConfig,
    unit_width: float = 4.0,
    loads: Sequence[float] = MEASURED_LOADS_F,
    slew: float = MEASURED_SLEW_S,
) -> List[Dict[float, CellTimingModel]]:
    """Distil measured waveform delays into linear Liberty-ready models.

    Each ``(gate, drive_strengths)`` cell is swept over ``drive_strengths
    × loads`` on its own grid (drive axes of one length), and every cell
    is measured by one :func:`characterize_sweep` — one kernel call.  Per
    cell and drive, worst-case delay is fitted against load (least
    squares), and the models' ``drive_resistance`` is the fitted slope
    and ``parasitic_capacitance`` the zero-load intercept — so
    ``stage_delay(load)`` reproduces the *measured* delays instead of the
    logical-effort estimate.  Input capacitance keeps the analytical
    per-pin value (the delay fit cannot observe it).  Returns one
    ``{drive: model}`` mapping per cell, in order.
    """
    if len(loads) < 2:
        raise CharacterizationError(
            "measured_timing_models needs >= 2 load points for the delay fit"
        )
    sweep = characterize_sweep(
        gate_names=[gate.name for gate, _ in cells],
        drive_strengths=[tuple(drives) for _, drives in cells],
        load_capacitances_f=loads,
        input_slews_s=(slew,),
        corners={"nominal": tech},
        unit_width=unit_width,
    )
    delays = sweep.grid("worst_delay_s")[:, :, :, 0, 0]   # (cell, drive, load)
    load_axis = np.array(loads)
    fitted: List[Dict[float, CellTimingModel]] = []
    for (gate, drive_strengths), cell_delays in zip(cells, delays):
        models: Dict[float, CellTimingModel] = {}
        for drive, drive_delays in zip(drive_strengths, cell_delays):
            slope, intercept = np.polyfit(load_axis, drive_delays, 1)
            if slope <= 0:
                raise CharacterizationError(
                    f"Measured delay of {gate.name!r} at {drive:g}X does "
                    "not increase with load; fit is unusable"
                )
            analytical = characterize_gate(
                gate, tech, unit_width=unit_width, drive_strength=drive
            )
            models[drive] = CellTimingModel(
                cell_type=gate.name,
                drive_strength=drive,
                input_capacitance=analytical.input_capacitance,
                drive_resistance=float(slope),
                parasitic_capacitance=float(max(intercept, 0.0) / slope),
            )
        fitted.append(models)
    return fitted
