"""Standard-cell assembly: PUN + PDN into complete cells (schemes 1 and 2).

Section IV standardises the compact layouts into library cells two ways:

* **Scheme 1** mimics CMOS rows: the PUN sits above the PDN, separated by
  the intra-cell routing gap.  For CNFETs that gap is limited by the input
  pin size (6 λ) instead of the 10 λ n-to-p diffusion spacing of CMOS.
* **Scheme 2** places the PUN *next to* the PDN, shrinking the cell height
  to the taller of the two columns; cells keep their natural height, which
  is what gives the full-adder of Case study 2 its extra area gain.

The same assembly code also builds cells from the baseline (etched-region)
and vulnerable network generators so the three techniques can be compared
and fed to the immunity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..devices.calibration import CMOS_PMOS_RATIO
from ..errors import LayoutGenerationError
from ..geometry.layout import LayoutCell
from ..geometry.primitives import Point, Rect
from ..geometry.transform import Orientation, Transform
from ..logic.network import GateNetworks
from ..tech.lambda_rules import CMOS_RULES, CNFET_RULES, DesignRules
from .compact import compact_network_layout
from .grid import baseline_network_layout, vulnerable_network_layout
from .sizing import CellSizing, size_gate
from .spec import (
    CellAnnotations,
    EtchRegion,
    NetworkLayoutResult,
    attach_annotations,
    get_annotations,
)

SCHEME_STACKED = 1   # PUN above PDN (CMOS-like)
SCHEME_SIDE_BY_SIDE = 2  # PUN next to PDN (novel compact scheme)


@dataclass
class StandardCell:
    """A fully assembled standard cell."""

    name: str
    gate: GateNetworks
    cell: LayoutCell
    scheme: int
    technique: str
    width: float
    height: float
    sizing: CellSizing
    pun: NetworkLayoutResult
    pdn: NetworkLayoutResult

    @property
    def area(self) -> float:
        """Cell area in λ² (bounding box of the abutment boundary)."""
        return self.width * self.height

    @property
    def active_area(self) -> float:
        """Total CNT-plane area in λ²."""
        return self.pun.active_area + self.pdn.active_area

    def annotations(self) -> CellAnnotations:
        """Merged electrical annotations of the assembled cell."""
        return get_annotations(self.cell)


_NETWORK_GENERATORS: Dict[str, Callable] = {}


def _compact_networks(gate: GateNetworks, unit_width: float,
                      rules: DesignRules) -> Tuple[NetworkLayoutResult, NetworkLayoutResult]:
    pun = compact_network_layout(
        gate.pun, gate.pun_tree, unit_width, rules, cell_name=f"{gate.name}_pun_compact"
    )
    pdn = compact_network_layout(
        gate.pdn, gate.pdn_tree, unit_width, rules, cell_name=f"{gate.name}_pdn_compact"
    )
    return pun, pdn


def _baseline_networks(gate: GateNetworks, unit_width: float,
                       rules: DesignRules) -> Tuple[NetworkLayoutResult, NetworkLayoutResult]:
    return (
        baseline_network_layout(gate, "pun", unit_width, rules),
        baseline_network_layout(gate, "pdn", unit_width, rules),
    )


def _vulnerable_networks(gate: GateNetworks, unit_width: float,
                         rules: DesignRules) -> Tuple[NetworkLayoutResult, NetworkLayoutResult]:
    return (
        vulnerable_network_layout(gate, "pun", unit_width, rules),
        vulnerable_network_layout(gate, "pdn", unit_width, rules),
    )


_NETWORK_GENERATORS.update(
    compact=_compact_networks,
    baseline=_baseline_networks,
    vulnerable=_vulnerable_networks,
)


def assemble_cell(
    gate: GateNetworks,
    technique: str = "compact",
    scheme: int = SCHEME_STACKED,
    unit_width: float = 4.0,
    drive_strength: float = 1.0,
    rules: DesignRules = CNFET_RULES,
    name: Optional[str] = None,
) -> StandardCell:
    """Assemble a complete standard cell.

    Parameters
    ----------
    technique:
        ``"compact"`` (the paper's new layouts), ``"baseline"`` (etched
        regions, [6]) or ``"vulnerable"`` (no protection).
    scheme:
        1 = PUN stacked above the PDN, 2 = PUN beside the PDN.
    unit_width:
        Width in λ of the unit transistor before stack sizing.
    drive_strength:
        Multiplier applied to every device width (e.g. 4.0 for a 4X cell).
    """
    if scheme not in (SCHEME_STACKED, SCHEME_SIDE_BY_SIDE):
        raise LayoutGenerationError(f"Unknown scheme {scheme!r} (use 1 or 2)")
    try:
        generator = _NETWORK_GENERATORS[technique]
    except KeyError:
        raise LayoutGenerationError(
            f"Unknown technique {technique!r}; available: {sorted(_NETWORK_GENERATORS)}"
        ) from None

    scaled_width = unit_width * drive_strength
    sizing = size_gate(gate, unit_width, drive_strength)
    pun, pdn = generator(gate, scaled_width, rules)

    cell_name = name or _default_cell_name(gate, technique, scheme, drive_strength)
    cell = LayoutCell(cell_name)

    # The network generators draw vertical CNT columns.  Inside a standard
    # cell the CNT (current-flow) direction runs horizontally — exactly like
    # the diffusion of a CMOS cell (Figure 6) — so each network is rotated
    # by 90° before placement: its column height becomes the cell length and
    # its transistor width becomes a slice of the cell height.
    if scheme == SCHEME_STACKED:
        separation = rules.pun_pdn_separation
        pdn_offset = (0.0, 0.0)
        pun_offset = (0.0, pdn.width + separation)
        width = max(pun.height, pdn.height)
        height = pdn.width + separation + pun.width
    else:
        # Scheme 2: the PUN strip continues the PDN strip horizontally; the
        # gap leaves room for the poly overhang of both strips plus the
        # minimum poly spacing so unrelated gates cannot touch across it.
        separation = rules.gate_gate_spacing + 2.0 * rules.active_contact_overhang
        pdn_offset = (0.0, 0.0)
        pun_offset = (pdn.height + separation, 0.0)
        width = pdn.height + separation + pun.height
        height = max(pun.width, pdn.width)

    annotations = _copy_network_into(cell, pdn, pdn_offset).merged_with(
        _copy_network_into(cell, pun, pun_offset), name=cell_name
    )
    annotations.inputs = gate.inputs
    annotations.output_net = "out"

    # The inter-network gap is etched (it fits the cell-boundary etching
    # step the paper mentions): a mispositioned CNT wandering from one
    # network strip into the other is cut before it can short a PDN contact
    # to a PUN contact.  The strip is inset by the poly-endcap overhang so
    # it never overlaps the gates.
    overhang = rules.active_contact_overhang
    if separation - 2.0 * overhang >= rules.etch_width - 1e-9:
        if scheme == SCHEME_STACKED:
            gap_etch = Rect(0.0, pdn.width + overhang, width,
                            pdn.width + separation - overhang)
        else:
            gap_etch = Rect(pdn.height + overhang, 0.0,
                            pdn.height + separation - overhang, height)
        cell.add_rect("cnt_etch", gap_etch)
        annotations.etches.append(EtchRegion(gap_etch))

    attach_annotations(cell, annotations)

    boundary = Rect(0.0, 0.0, width, height)
    cell.add_rect("boundary", boundary)
    _add_pins(cell, gate, boundary, rules)

    cell.properties.update(
        technique=technique,
        scheme=scheme,
        drive_strength=drive_strength,
        unit_width=unit_width,
        gate_name=gate.name,
    )

    return StandardCell(
        name=cell_name,
        gate=gate,
        cell=cell,
        scheme=scheme,
        technique=technique,
        width=width,
        height=height,
        sizing=sizing,
        pun=pun,
        pdn=pdn,
    )


def _default_cell_name(gate: GateNetworks, technique: str, scheme: int,
                       drive_strength: float) -> str:
    drive = f"{drive_strength:g}X"
    return f"{gate.name}_{drive}_{technique}_s{scheme}"


def _copy_network_into(cell: LayoutCell, network: NetworkLayoutResult,
                       offset: Tuple[float, float]) -> CellAnnotations:
    """Rotate a vertical network column into the horizontal cell orientation
    and copy its shapes/annotations at ``offset``.

    The rotation maps column coordinates ``(x, y)`` (x across the transistor
    width, y along the CNTs) to cell coordinates ``(y, x)`` so the CNT
    direction runs along the cell length; it is a mirror-plus-rotation,
    which keeps all rectangles axis-aligned.
    """
    dx, dy = offset
    transform = Transform(dx=dx, dy=dy, orientation=Orientation.MXR90)
    for layer, rect in network.cell.all_shapes():
        cell.add_rect(layer, transform.apply_rect(rect))
    return network.annotations.transformed(transform)


def _add_pins(cell: LayoutCell, gate: GateNetworks, boundary: Rect,
              rules: DesignRules) -> None:
    """Attach input/output/power pins along the cell boundary."""
    pin_side = min(rules.pin_size, max(boundary.width, rules.min_metal_width))
    pitch = boundary.width / (len(gate.inputs) + 1)
    for index, signal in enumerate(gate.inputs, start=1):
        center_x = boundary.x1 + index * pitch
        rect = Rect.centered(
            Point(center_x, boundary.y2 - pin_side / 2.0), pin_side / 2.0, pin_side / 2.0
        )
        cell.add_pin(signal, rect, "pin", direction="input")
    out_rect = Rect.centered(
        Point(boundary.x2 - pin_side / 2.0, boundary.center.y),
        pin_side / 2.0,
        pin_side / 2.0,
    )
    cell.add_pin("out", out_rect, "pin", direction="output")


# ---------------------------------------------------------------------------
# Reference CMOS cell area model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMOSCellArea:
    """Analytical area of the equivalent CMOS standard cell (in λ and λ²)."""

    name: str
    width: float
    height: float
    nmos_width: float
    pmos_width: float

    @property
    def area(self) -> float:
        return self.width * self.height


def cmos_cell_area(
    gate: GateNetworks,
    unit_width: float = 4.0,
    drive_strength: float = 1.0,
) -> CMOSCellArea:
    """Area of the corresponding CMOS cell at the 65 nm node.

    The CMOS layout follows the conventional diffusion-shared style: cell
    length is one contact/gate alternation per input, and cell height is
    the n-diffusion height plus the p-diffusion height plus the 10 λ n-to-p
    separation (Section V).  The pMOS network is 1.4× wider to compensate
    for hole mobility.
    """
    sizing = size_gate(gate, unit_width, drive_strength)
    nmos_width = sizing.max_pdn_width
    pmos_width = sizing.max_pun_width * CMOS_PMOS_RATIO
    num_inputs = len(gate.inputs)
    length = CMOS_RULES.linear_chain_length(num_inputs + 1, num_inputs)
    height = nmos_width + CMOS_RULES.pun_pdn_separation + pmos_width
    return CMOSCellArea(
        name=f"CMOS_{gate.name}_{drive_strength:g}X",
        width=length,
        height=height,
        nmos_width=nmos_width,
        pmos_width=pmos_width,
    )
