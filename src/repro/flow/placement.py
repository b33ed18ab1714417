"""Cell placement for the two CNFET standardisation schemes and for CMOS.

Case study 2 contrasts three placement styles for the same mapped netlist:

* **Scheme 1** (CMOS-like rows): every cell is stretched to the standard
  row height (the tallest cell of the library), so undersized cells waste
  area — exactly the utilisation loss the paper points out for Inv4X vs
  Inv9X in Figure 8(b).
* **Scheme 2** (free-height shelves): cells keep their natural height and
  are packed onto shelves, which is what recovers the extra ~0.2× area in
  Figure 8(c).
* **CMOS reference rows**: the same row-based style using the CMOS cell
  areas.

The placers are deliberately simple (greedy row/shelf filling toward a
square core) — the paper's point is about cell-height flexibility, not
about placement algorithms — but they produce real coordinates that the
GDSII flow streams out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import GateNetlist
from ..core.standard_cell import cmos_cell_area
from ..errors import PlacementError
from ..geometry.layout import Layout, LayoutCell
from ..geometry.primitives import Rect
from .techmap import MappedDesign


@dataclass(frozen=True)
class PlacedCell:
    """One placed instance with its outline in λ."""

    instance_name: str
    cell_name: str
    x: float
    y: float
    width: float
    height: float

    @property
    def outline(self) -> Rect:
        return Rect(self.x, self.y, self.x + self.width, self.y + self.height)


@dataclass
class PlacementResult:
    """Outcome of placing one mapped design."""

    design_name: str
    style: str
    placed: List[PlacedCell]
    core_width: float
    core_height: float
    row_height: Optional[float] = None

    @property
    def core_area(self) -> float:
        """Area of the bounding core region in λ²."""
        return self.core_width * self.core_height

    @property
    def cell_area(self) -> float:
        """Sum of placed cell outline areas in λ²."""
        return sum(cell.width * cell.height for cell in self.placed)

    @property
    def utilization(self) -> float:
        """Cell area over core area (1.0 = perfectly packed)."""
        if self.core_area <= 0:
            return 0.0
        return self.cell_area / self.core_area

    def overlaps(self) -> List[Tuple[str, str]]:
        """Pairs of placed cells whose outlines overlap (should be empty)."""
        problems: List[Tuple[str, str]] = []
        for index, first in enumerate(self.placed):
            for second in self.placed[index + 1:]:
                if first.outline.intersects(second.outline, strict=True):
                    problems.append((first.instance_name, second.instance_name))
        return problems


def _row_place(
    design_name: str,
    style: str,
    items: Sequence[Tuple[str, str, float, float]],
    row_height: float,
) -> PlacementResult:
    """Greedy row placement of (instance, cell, width, height) outlines.

    Every row has the same ``row_height``; a cell shorter than the row still
    occupies the full row height (standard-cell abutment).
    """
    if not items:
        raise PlacementError(f"Design {design_name!r} has no cells to place")
    total_width = sum(width for _, _, width, _ in items)
    row_width_target = math.sqrt(total_width * row_height)
    row_width_target = max(row_width_target, max(width for _, _, width, _ in items))

    placed: List[PlacedCell] = []
    x_cursor = 0.0
    y_cursor = 0.0
    max_row_width = 0.0
    for instance_name, cell_name, width, height in items:
        if height > row_height + 1e-9:
            raise PlacementError(
                f"Cell {cell_name!r} (height {height}λ) does not fit the row "
                f"height {row_height}λ"
            )
        if x_cursor > 0.0 and x_cursor + width > row_width_target:
            max_row_width = max(max_row_width, x_cursor)
            x_cursor = 0.0
            y_cursor += row_height
        placed.append(
            PlacedCell(instance_name, cell_name, x_cursor, y_cursor, width, row_height)
        )
        x_cursor += width
    max_row_width = max(max_row_width, x_cursor)
    core_height = y_cursor + row_height
    return PlacementResult(
        design_name=design_name,
        style=style,
        placed=placed,
        core_width=max_row_width,
        core_height=core_height,
        row_height=row_height,
    )


def place_scheme1(design: MappedDesign) -> PlacementResult:
    """Row placement with the standardised (tallest-cell) height of scheme 1.

    The row height is standardised to the tallest cell *used by the design*
    (Figure 8b: Inv4X and Inv9X occupy the same height after
    standardisation).
    """
    if not design.gates:
        raise PlacementError(f"Design {design.netlist.name!r} has no cells to place")
    row_height = max(gate.cell.height for gate in design.gates)
    items = [
        (gate.instance.name, gate.cell.name, gate.cell.width, gate.cell.height)
        for gate in design.gates
    ]
    return _row_place(design.netlist.name, "cnfet_scheme1", items, row_height)


def place_scheme2(design: MappedDesign) -> PlacementResult:
    """Shelf packing with natural cell heights (scheme 2).

    Cells are sorted by height and packed onto shelves whose height matches
    the tallest cell on that shelf, so short cells do not pay for tall ones.
    """
    if not design.gates:
        raise PlacementError(f"Design {design.netlist.name!r} has no cells to place")
    items = sorted(
        (
            (gate.instance.name, gate.cell.name, gate.cell.width, gate.cell.height)
            for gate in design.gates
        ),
        key=lambda item: -item[3],
    )
    total_area = sum(width * height for _, _, width, height in items)
    core_width_target = max(
        math.sqrt(total_area),
        max(width for _, _, width, _ in items),
    )

    placed: List[PlacedCell] = []
    x_cursor = 0.0
    y_cursor = 0.0
    shelf_height = 0.0
    max_width = 0.0
    for instance_name, cell_name, width, height in items:
        if x_cursor > 0.0 and x_cursor + width > core_width_target:
            max_width = max(max_width, x_cursor)
            y_cursor += shelf_height
            x_cursor = 0.0
            shelf_height = 0.0
        shelf_height = max(shelf_height, height)
        placed.append(PlacedCell(instance_name, cell_name, x_cursor, y_cursor, width, height))
        x_cursor += width
    max_width = max(max_width, x_cursor)
    core_height = y_cursor + shelf_height
    return PlacementResult(
        design_name=design.netlist.name,
        style="cnfet_scheme2",
        placed=placed,
        core_width=max_width,
        core_height=core_height,
    )


def place_cmos_reference(
    netlist: GateNetlist,
    unit_width: float = 4.0,
) -> PlacementResult:
    """Row placement of the same netlist using the CMOS cell area model."""
    from ..logic.functions import standard_gate  # local import avoids a cycle

    items: List[Tuple[str, str, float, float]] = []
    heights: List[float] = []
    for gate in netlist.gates:
        reference = cmos_cell_area(
            standard_gate(gate.cell_type), unit_width=unit_width,
            drive_strength=gate.drive_strength,
        )
        items.append((gate.name, reference.name, reference.width, reference.height))
        heights.append(reference.height)
    if not items:
        raise PlacementError(f"Design {netlist.name!r} has no cells to place")
    row_height = max(heights)
    return _row_place(netlist.name, "cmos_reference", items, row_height)


def placement_layout(result: PlacementResult, design: Optional[MappedDesign] = None) -> Layout:
    """Turn a placement into a hierarchical layout (cell outlines plus, when
    the mapped design is supplied, real cell instances) for GDS export."""
    layout = Layout(result.design_name)
    top = layout.new_cell(f"{result.design_name}_top", top=True)
    known_cells: Dict[str, LayoutCell] = {}
    if design is not None:
        for gate in design.gates:
            if gate.cell.name not in known_cells:
                known_cells[gate.cell.name] = gate.cell.layout.cell
    for cell in known_cells.values():
        layout.add_cell(cell)
    for placed in result.placed:
        top.add_rect("boundary", placed.outline)
        if placed.cell_name in known_cells:
            top.add_instance(placed.cell_name, placed.instance_name, placed.x, placed.y)
    return layout
