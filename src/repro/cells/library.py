"""CNFET standard-cell library generation (Section IV.A).

A :class:`StandardCellLibrary` bundles, for every (gate, drive strength)
pair, the physical layout produced by the compact technique (in either
standardisation scheme), the electrical timing model, and the area of the
equivalent CMOS cell, so the flow and the case studies can pull everything
from one place.  Cells are referenced by names like ``NAND2_4X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.logical_effort import CellTimingModel, TimingLibrary
from ..core.standard_cell import (
    SCHEME_SIDE_BY_SIDE,
    SCHEME_STACKED,
    CMOSCellArea,
    StandardCell,
    assemble_cell,
    cmos_cell_area,
)
from ..errors import LibraryError
from ..logic.functions import standard_gate
from ..logic.network import GateNetworks
from ..tech.lambda_rules import CNFET_RULES, DesignRules
from .characterize import (
    TechnologyConfig,
    characterize_gate,
    cnfet_technology,
    cmos_technology,
    measured_timing_models,
)

#: Default gate set of the library (the cells of Table 1 plus the OAI duals
#: and the AOI31 example of Figure 4).
DEFAULT_GATE_SET: Tuple[str, ...] = (
    "INV", "NAND2", "NAND3", "NOR2", "NOR3", "AOI21", "AOI22", "AOI31",
    "OAI21", "OAI22",
)

#: Default drive strengths, matching the full adder of Figure 8 (2X/4X/7X/9X).
DEFAULT_DRIVE_STRENGTHS: Tuple[float, ...] = (1.0, 2.0, 4.0, 7.0, 9.0)


@dataclass
class LibraryCell:
    """One library entry: layout + timing + CMOS reference."""

    name: str
    gate: GateNetworks
    drive_strength: float
    layout: StandardCell
    timing: CellTimingModel
    cmos_reference: CMOSCellArea

    @property
    def area(self) -> float:
        """CNFET cell area in λ²."""
        return self.layout.area

    @property
    def height(self) -> float:
        return self.layout.height

    @property
    def width(self) -> float:
        return self.layout.width

    @property
    def area_gain_vs_cmos(self) -> float:
        """How many times smaller than the equivalent CMOS cell."""
        return self.cmos_reference.area / self.layout.area if self.layout.area else 0.0


def cell_key(gate_name: str, drive_strength: float) -> str:
    """Canonical library cell name, e.g. ``NAND2_4X``."""
    return f"{gate_name.upper()}_{drive_strength:g}X"


class StandardCellLibrary:
    """A generated CNFET standard-cell library."""

    def __init__(self, name: str, scheme: int, technology: TechnologyConfig,
                 unit_width: float, rules: DesignRules,
                 timing_source: str = "logical_effort"):
        self.name = name
        self.scheme = scheme
        self.technology = technology
        self.unit_width = unit_width
        self.rules = rules
        #: "logical_effort" (RC abstraction) or "measured" (delays fitted
        #: to batch transient waveforms); recorded in the Liberty export.
        self.timing_source = timing_source
        self._cells: Dict[str, LibraryCell] = {}

    # -- construction -------------------------------------------------------------

    def add_cell(self, cell: LibraryCell) -> None:
        if cell.name in self._cells:
            raise LibraryError(f"Duplicate library cell {cell.name!r}")
        self._cells[cell.name] = cell

    # -- queries -------------------------------------------------------------------

    def cell(self, gate_name: str, drive_strength: float = 1.0) -> LibraryCell:
        key = cell_key(gate_name, drive_strength)
        try:
            return self._cells[key]
        except KeyError:
            raise LibraryError(
                f"Library {self.name!r} has no cell {key!r}; available: "
                f"{sorted(self._cells)}"
            ) from None

    def has_cell(self, gate_name: str, drive_strength: float = 1.0) -> bool:
        return cell_key(gate_name, drive_strength) in self._cells

    def cells(self) -> List[LibraryCell]:
        return list(self._cells.values())

    def gate_types(self) -> List[str]:
        return sorted({cell.gate.name for cell in self._cells.values()})

    def drive_strengths(self, gate_name: str) -> List[float]:
        return sorted(
            cell.drive_strength
            for cell in self._cells.values()
            if cell.gate.name == gate_name.upper()
        )

    def timing_library(self) -> TimingLibrary:
        """Export all timing models as a :class:`TimingLibrary`."""
        timing = TimingLibrary(self.name, vdd=self.technology.vdd)
        for cell in self._cells.values():
            timing.add(cell.timing)
        return timing

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())


def build_library(
    name: str = "cnfet65_compact",
    gate_names: Sequence[str] = DEFAULT_GATE_SET,
    drive_strengths: Sequence[float] = DEFAULT_DRIVE_STRENGTHS,
    scheme: int = SCHEME_STACKED,
    technique: str = "compact",
    unit_width: float = 4.0,
    technology: Optional[TechnologyConfig] = None,
    rules: DesignRules = CNFET_RULES,
    timing_source: str = "logical_effort",
) -> StandardCellLibrary:
    """Generate a complete standard-cell library.

    Every cell gets the compact immune layout (or the requested technique),
    its timing characterisation, and the area of the equivalent CMOS cell
    for the comparisons of Section V.

    ``timing_source`` selects the electrical view: ``"logical_effort"``
    keeps the fast RC abstraction; ``"measured"`` sweeps each gate's
    drive strengths on its own grid, every gate in one transient kernel
    call (:func:`~repro.cells.characterize.measured_timing_models`), so
    the Liberty export carries waveform-measured delays.
    """
    if scheme not in (SCHEME_STACKED, SCHEME_SIDE_BY_SIDE):
        raise LibraryError(f"Unknown scheme {scheme}")
    if timing_source not in ("logical_effort", "measured"):
        raise LibraryError(f"Unknown timing source {timing_source!r}")
    technology = technology or cnfet_technology()
    library = StandardCellLibrary(name, scheme, technology, unit_width, rules,
                                  timing_source=timing_source)

    measured: Dict[str, Dict[float, object]] = {}
    if timing_source == "measured":
        measured = dict(zip(gate_names, measured_timing_models(
            [(standard_gate(name), drive_strengths) for name in gate_names],
            technology, unit_width=unit_width,
        )))
    for gate_name in gate_names:
        gate_timing = measured.get(gate_name, {})
        for drive in drive_strengths:
            gate = standard_gate(gate_name)
            layout = assemble_cell(
                gate,
                technique=technique,
                scheme=scheme,
                unit_width=unit_width,
                drive_strength=drive,
                rules=rules,
                name=cell_key(gate_name, drive),
            )
            timing = gate_timing.get(drive) or characterize_gate(
                gate, technology, unit_width=unit_width, drive_strength=drive
            )
            cmos_ref = cmos_cell_area(
                gate, unit_width=unit_width, drive_strength=drive
            )
            library.add_cell(
                LibraryCell(
                    name=cell_key(gate_name, drive),
                    gate=gate,
                    drive_strength=drive,
                    layout=layout,
                    timing=timing,
                    cmos_reference=cmos_ref,
                )
            )
    return library


def build_cmos_timing_library(
    gate_names: Sequence[str] = DEFAULT_GATE_SET,
    drive_strengths: Sequence[float] = DEFAULT_DRIVE_STRENGTHS,
    unit_width: float = 4.0,
) -> TimingLibrary:
    """Timing library of the reference CMOS cells (same logic, 65 nm MOSFETs)."""
    technology = cmos_technology()
    timing = TimingLibrary("cmos65_reference", vdd=technology.vdd)
    for gate_name in gate_names:
        for drive in drive_strengths:
            gate = standard_gate(gate_name)
            timing.add(
                characterize_gate(gate, technology, unit_width=unit_width,
                                  drive_strength=drive)
            )
    return timing
