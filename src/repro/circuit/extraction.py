"""Post-layout parasitic extraction.

The design kit's post-layout analysis block (Figure 5) extracts parasitics
from the drawn cells so the electrical comparison includes layout loading,
not just intrinsic device capacitance.  The extractor here is deliberately
simple but complete for the cell-level layouts this library generates:

* metal area capacitance to the substrate per routing layer,
* metal-to-metal coupling is folded into an effective per-area factor,
* contact resistance per contact cut, and
* poly gate resistance per square.

All values are per the 65 nm-class back-end the paper reuses above the CNT
plane; they are applied per layer area measured straight off the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import NetlistError
from ..geometry.layout import LayoutCell
from ..tech.lambda_rules import CNFET_RULES


@dataclass(frozen=True)
class ExtractionParameters:
    """Back-end parasitic coefficients (65 nm-class defaults)."""

    #: metal area capacitance to substrate [F/um^2] (includes coupling share)
    metal_area_cap_per_um2: float = 0.06e-15
    #: poly area capacitance outside the channel [F/um^2]
    poly_area_cap_per_um2: float = 0.08e-15
    #: resistance of one contact cut [ohm]
    contact_resistance: float = 12.0
    #: metal sheet resistance [ohm/square]
    metal_sheet_resistance: float = 0.15
    #: poly sheet resistance [ohm/square]
    poly_sheet_resistance: float = 8.0


@dataclass(frozen=True)
class NetParasitics:
    """Extracted parasitics of one net."""

    net: str
    capacitance: float
    resistance: float


@dataclass
class ExtractionReport:
    """Per-net parasitics plus cell-level summaries."""

    cell_name: str
    nets: Dict[str, NetParasitics] = field(default_factory=dict)

    @property
    def total_capacitance(self) -> float:
        return sum(p.capacitance for p in self.nets.values())

    def capacitance(self, net: str) -> float:
        return self.nets[net].capacitance if net in self.nets else 0.0

    def resistance(self, net: str) -> float:
        return self.nets[net].resistance if net in self.nets else 0.0


class ParasiticExtractor:
    """Extract wiring parasitics from an annotated CNFET cell layout."""

    rules = CNFET_RULES
    parameters = ExtractionParameters()

    def extract(self, cell: LayoutCell) -> ExtractionReport:
        """Extract per-net parasitics from a generated cell.

        Metal shapes are attributed to nets through the cell annotations
        (contacts carry net names); remaining routing metal is charged to an
        ``__routing__`` pseudo-net so nothing is silently dropped.
        """
        from ..core.spec import get_annotations  # local import avoids a cycle

        report = ExtractionReport(cell_name=cell.name)
        try:
            annotations = get_annotations(cell)
        except Exception:
            annotations = None

        lambda_um = self.rules.lambda_nm / 1000.0
        area_factor = lambda_um * lambda_um

        assigned_area: Dict[str, float] = {}
        contact_counts: Dict[str, int] = {}
        if annotations is not None:
            for contact in annotations.contacts:
                area_um2 = contact.rect.area * area_factor
                assigned_area[contact.net] = assigned_area.get(contact.net, 0.0) + area_um2
                contact_counts[contact.net] = contact_counts.get(contact.net, 0) + 1

        total_metal_area = 0.0
        for layer in cell.layers():
            if not layer.startswith("metal"):
                continue
            for rect in cell.shapes(layer):
                total_metal_area += rect.area * area_factor
        unassigned_area = max(0.0, total_metal_area - sum(assigned_area.values()))

        params = self.parameters
        for net, area_um2 in assigned_area.items():
            count = max(1, contact_counts.get(net, 1))
            resistance = params.contact_resistance / count
            capacitance = area_um2 * params.metal_area_cap_per_um2
            report.nets[net] = NetParasitics(net, capacitance, resistance)

        if unassigned_area > 0:
            report.nets["__routing__"] = NetParasitics(
                "__routing__",
                unassigned_area * params.metal_area_cap_per_um2,
                params.metal_sheet_resistance,
            )
        return report

    def wire_capacitance(self, length_lambda: float) -> float:
        """Capacitance of a minimum-width metal-1 wire of the given length
        [F]."""
        if length_lambda < 0:
            raise NetlistError("Wire length must be non-negative")
        lambda_um = self.rules.lambda_nm / 1000.0
        area_um2 = (length_lambda * self.rules.min_metal_width
                    * lambda_um * lambda_um)
        return area_um2 * self.parameters.metal_area_cap_per_um2

    def wire_resistance(self, length_lambda: float) -> float:
        """Resistance of a minimum-width metal-1 wire of the given length
        [ohm]."""
        if length_lambda < 0:
            raise NetlistError("Wire length must be non-negative")
        squares = length_lambda / self.rules.min_metal_width
        return squares * self.parameters.metal_sheet_resistance
