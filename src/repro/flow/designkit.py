"""The CNFET Design Kit: a logic-to-GDSII flow (Figure 5).

:class:`CNFETDesignKit` bundles everything Section IV describes — the
process description (technology node + λ rules + layer stack), the
imperfection-immune standard-cell library with its electrical views, the
mapping/placement tools and the GDSII back end — behind one facade, so a
user can go from a structural netlist to a placed layout, a Liberty view, a
SPICE-able electrical comparison and an area/timing/energy report against
the 65 nm CMOS reference in a few calls.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence

from ..cells.library import (
    DEFAULT_DRIVE_STRENGTHS,
    DEFAULT_GATE_SET,
    StandardCellLibrary,
    build_cmos_timing_library,
    build_library,
)
from ..cells.liberty import write_liberty
from ..circuit.logical_effort import PathTimingResult, analyse_netlist
from ..circuit.netlist import GateNetlist
from ..errors import FlowError
from ..geometry.gds import GDSWriter, GDSWriterOptions
from ..geometry.layout import Layout
from ..tech.drc import DRCChecker
from ..tech.layers import cnfet_layer_stack
from ..tech.nodes import cnfet65_node
from .placement import (
    PlacementResult,
    place_cmos_reference,
    place_scheme1,
    place_scheme2,
    placement_layout,
)
from .techmap import MappedDesign, map_netlist
from .verilog import parse_structural_verilog


@dataclass
class FlowReport:
    """Summary of one logic-to-GDSII run."""

    design_name: str
    scheme: int
    gate_count: int
    cell_usage: Dict[str, int]
    placement: PlacementResult
    timing: PathTimingResult
    cmos_placement: PlacementResult
    cmos_timing: PathTimingResult

    @property
    def area_gain_vs_cmos(self) -> float:
        """CMOS core area over CNFET core area.

        A non-positive core area means placement produced a degenerate
        (empty or collapsed) core — that is a broken flow, not an infinite
        gain, so it raises :class:`~repro.errors.FlowError` instead of
        masking the problem.
        """
        if self.placement.core_area <= 0:
            raise FlowError(
                f"{self.design_name}: degenerate CNFET placement "
                f"(core area {self.placement.core_area:g} λ²); "
                "cannot compute area gain"
            )
        if self.cmos_placement.core_area <= 0:
            raise FlowError(
                f"{self.design_name}: degenerate CMOS reference placement "
                f"(core area {self.cmos_placement.core_area:g} λ²); "
                "cannot compute area gain"
            )
        return self.cmos_placement.core_area / self.placement.core_area

    @property
    def delay_gain_vs_cmos(self) -> float:
        if self.timing.critical_path_delay <= 0:
            raise FlowError(
                f"{self.design_name}: non-positive CNFET critical-path delay "
                f"({self.timing.critical_path_delay:g} s); timing analysis "
                "did not produce a usable path"
            )
        return self.cmos_timing.critical_path_delay / self.timing.critical_path_delay

    @property
    def energy_gain_vs_cmos(self) -> float:
        if self.timing.total_energy_per_cycle <= 0:
            raise FlowError(
                f"{self.design_name}: non-positive CNFET energy per cycle "
                f"({self.timing.total_energy_per_cycle:g} J); timing analysis "
                "did not produce usable energies"
            )
        return (
            self.cmos_timing.total_energy_per_cycle / self.timing.total_energy_per_cycle
        )

    def summary(self) -> str:
        """Human-readable report."""
        lines = [
            f"design          : {self.design_name} (scheme {self.scheme})",
            f"gates           : {self.gate_count}",
            f"CNFET core area : {self.placement.core_area:.0f} λ² "
            f"(utilisation {self.placement.utilization * 100:.0f}%)",
            f"CMOS core area  : {self.cmos_placement.core_area:.0f} λ²",
            f"area gain       : {self.area_gain_vs_cmos:.2f}x",
            f"CNFET delay     : {self.timing.critical_path_delay * 1e12:.1f} ps",
            f"CMOS delay      : {self.cmos_timing.critical_path_delay * 1e12:.1f} ps",
            f"delay gain      : {self.delay_gain_vs_cmos:.2f}x",
            f"CNFET energy    : {self.timing.total_energy_per_cycle * 1e15:.2f} fJ/cycle",
            f"CMOS energy     : {self.cmos_timing.total_energy_per_cycle * 1e15:.2f} fJ/cycle",
            f"energy gain     : {self.energy_gain_vs_cmos:.2f}x",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class FlowSummary:
    """The serializable distillation of one flow run.

    Everything the Study layer needs to report or compare runs headlessly
    — scalar areas, delays, energies and a GDSII fingerprint — without
    dragging the placed layout or the GDSII byte stream along.  Produced
    by :meth:`FlowResult.summarize`.
    """

    design_name: str
    scheme: int
    gate_count: int
    cell_usage: Dict[str, int]
    core_area: float
    utilization: float
    cmos_core_area: float
    critical_path_delay: float
    total_energy_per_cycle: float
    cmos_critical_path_delay: float
    cmos_total_energy_per_cycle: float
    gds_size_bytes: int
    gds_sha256: str


@dataclass
class FlowResult:
    """Everything a flow run produces."""

    report: FlowReport
    mapped: MappedDesign
    layout: Layout
    gds_bytes: bytes

    def summarize(self) -> FlowSummary:
        """Distil the run into its serializable :class:`FlowSummary`."""
        report = self.report
        return FlowSummary(
            design_name=report.design_name,
            scheme=report.scheme,
            gate_count=report.gate_count,
            cell_usage=dict(report.cell_usage),
            core_area=report.placement.core_area,
            utilization=report.placement.utilization,
            cmos_core_area=report.cmos_placement.core_area,
            critical_path_delay=report.timing.critical_path_delay,
            total_energy_per_cycle=report.timing.total_energy_per_cycle,
            cmos_critical_path_delay=report.cmos_timing.critical_path_delay,
            cmos_total_energy_per_cycle=report.cmos_timing.total_energy_per_cycle,
            gds_size_bytes=len(self.gds_bytes),
            gds_sha256=hashlib.sha256(self.gds_bytes).hexdigest(),
        )


class CNFETDesignKit:
    """The complete design kit of Section IV."""

    def __init__(
        self,
        gate_set: Sequence[str] = DEFAULT_GATE_SET,
        drive_strengths: Sequence[float] = DEFAULT_DRIVE_STRENGTHS,
        unit_width: float = 4.0,
        scheme: int = 1,
        timing_source: str = "logical_effort",
    ):
        self.node = cnfet65_node()
        self.rules = self.node.rules
        self.layer_stack = cnfet_layer_stack()
        self.scheme = scheme
        self.unit_width = unit_width
        self.library: StandardCellLibrary = build_library(
            name=f"cnfet65_scheme{scheme}",
            gate_names=gate_set,
            drive_strengths=drive_strengths,
            scheme=scheme,
            unit_width=unit_width,
            rules=self.rules,
            timing_source=timing_source,
        )
        self.cmos_timing = build_cmos_timing_library(
            gate_names=gate_set, drive_strengths=drive_strengths, unit_width=unit_width
        )
        self._drc = DRCChecker(self.rules)

    # -- library-level services ----------------------------------------------------

    def liberty(self) -> str:
        """Liberty view of the CNFET library."""
        return write_liberty(self.library)

    def run_drc(self) -> Dict[str, list]:
        """DRC over every library cell; returns only cells with violations."""
        report: Dict[str, list] = {}
        for cell in self.library.cells():
            violations = self._drc.check(cell.layout.cell)
            if violations:
                report[cell.name] = violations
        return report

    # -- the logic-to-GDSII flow -----------------------------------------------------

    def run_flow(self, netlist) -> FlowResult:
        """Map, place, analyse and stream out one design.

        ``netlist`` is either a :class:`~repro.circuit.netlist.GateNetlist`
        or structural Verilog text.
        """
        if isinstance(netlist, str):
            netlist = parse_structural_verilog(netlist)
        if not isinstance(netlist, GateNetlist):
            raise FlowError(
                "run_flow expects a GateNetlist or structural Verilog text, "
                f"got {type(netlist).__name__}"
            )
        mapped = map_netlist(netlist, self.library)
        placement = (
            place_scheme1(mapped) if self.scheme == 1 else place_scheme2(mapped)
        )
        cmos_placement = place_cmos_reference(netlist, unit_width=self.unit_width)

        timing = analyse_netlist(netlist, self.library.timing_library())
        cmos_timing = analyse_netlist(netlist, self.cmos_timing)

        layout = placement_layout(placement, mapped)
        writer = GDSWriter(
            self.layer_stack,
            GDSWriterOptions(unit_nm=self.rules.lambda_nm),
        )
        gds_bytes = writer.to_bytes(layout)

        report = FlowReport(
            design_name=netlist.name,
            scheme=self.scheme,
            gate_count=len(netlist),
            cell_usage=mapped.cell_usage(),
            placement=placement,
            timing=timing,
            cmos_placement=cmos_placement,
            cmos_timing=cmos_timing,
        )
        return FlowResult(report=report, mapped=mapped, layout=layout, gds_bytes=gds_bytes)

    def write_gds(self, result: FlowResult, path: str) -> str:
        """Write the GDSII stream of a flow result to ``path``."""
        with open(path, "wb") as stream:
            stream.write(result.gds_bytes)
        return path
