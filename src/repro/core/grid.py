"""Grid-style network layouts: the vulnerable and baseline-immune techniques.

Two reference layout styles the paper compares against:

* the **misaligned-CNT-vulnerable** layout (Figure 2b): parallel branches
  sit side by side over one contiguous CNT plane, sharing full-width metal
  contact strips at the series junctions.  A mispositioned CNT can sneak
  between two gate columns and connect the contact strips directly (fully
  doped), corrupting the logic function.
* the **baseline immune** layout of Patil et al. [6] (Figures 2c, 3a): the
  same structure, but the CNT plane between adjacent parallel branches is
  etched away (minimum 2 λ wide strips), so a wandering CNT is cut before
  it can bypass a gate.  The cost is the extra etched width, and interior
  branches of a ≥3-wide parallel group can only be routed with a via on
  top of the gate ("vertical gating"), which conventional rules forbid.

Both are generated by the same recursive series/parallel grid construction,
differing only in whether the inter-branch separator is an etched strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..errors import LayoutGenerationError
from ..geometry.layout import LayoutCell
from ..geometry.primitives import Rect
from ..logic.network import GateNetworks, SPLeaf, SPNode, SPParallel, SPSeries
from ..tech.lambda_rules import CNFET_RULES, DesignRules
from .sizing import leaf_width_factors
from .spec import (
    ActiveRegion,
    CellAnnotations,
    ContactRegion,
    EtchRegion,
    GateRegion,
    NetworkLayoutResult,
    attach_annotations,
)


@dataclass
class _Block:
    """A planned sub-layout spanning between two horizontal contact strips."""

    width: float
    height: float
    #: draw(cell, annotations, x_left, y_bottom) -> None
    draw: Callable[[LayoutCell, CellAnnotations, float, float], None]
    has_interior_branch: bool = False


class _GridPlanner:
    """Recursive planner for the series/parallel grid construction."""

    def __init__(self, rules: DesignRules, device: str, etched: bool,
                 widths: List[float]):
        self.rules = rules
        self.device = device
        self.etched = etched
        self.widths = widths
        self._leaf_index = 0
        self._net_counter = 0
        self.uses_vertical_gating = False

    def next_internal_net(self) -> str:
        self._net_counter += 1
        return f"x{self._net_counter}"

    def plan(self, node: SPNode) -> _Block:
        if isinstance(node, SPLeaf):
            return self._plan_leaf(node)
        if isinstance(node, SPSeries):
            return self._plan_series(node)
        if isinstance(node, SPParallel):
            return self._plan_parallel(node)
        raise LayoutGenerationError(f"Unsupported SP node {type(node).__name__}")

    # -- leaves -----------------------------------------------------------------

    def _plan_leaf(self, node: SPLeaf) -> _Block:
        rules = self.rules
        width = max(self.widths[self._leaf_index], rules.min_transistor_width)
        self._leaf_index += 1
        height = rules.gate_contact_spacing * 2.0 + rules.gate_length

        def draw(cell: LayoutCell, annotations: CellAnnotations,
                 x_left: float, y_bottom: float) -> None:
            # Gates span exactly the column width: they may not spill into
            # the neighbouring etched strip (poly is not allowed there and
            # the etch already removes any CNT a wider gate would cover).
            gate_rect = Rect(
                x_left,
                y_bottom + rules.gate_contact_spacing,
                x_left + width,
                y_bottom + rules.gate_contact_spacing + rules.gate_length,
            )
            cell.add_rect("poly", gate_rect)
            annotations.gates.append(GateRegion(gate_rect, node.signal, self.device))

        return _Block(width=width, height=height, draw=draw)

    # -- series composition -------------------------------------------------------

    def _plan_series(self, node: SPSeries) -> _Block:
        rules = self.rules
        children = [self.plan(child) for child in node.children]
        width = max(child.width for child in children)
        # A metal strip is only needed at a series junction when one of the
        # two neighbours is a parallel group: current must then redistribute
        # laterally across branches, which individual CNTs cannot do.  Two
        # directly stacked gates just share the CNT region (the usual
        # diffusion-style sharing) and need no contact.
        junction_has_contact = [
            isinstance(node.children[index], SPParallel)
            or isinstance(node.children[index + 1], SPParallel)
            for index in range(len(children) - 1)
        ]
        height = sum(child.height for child in children)
        height += sum(rules.contact_length for flag in junction_has_contact if flag)
        junction_nets = [
            self.next_internal_net() if flag else None for flag in junction_has_contact
        ]

        def draw(cell: LayoutCell, annotations: CellAnnotations,
                 x_left: float, y_bottom: float) -> None:
            y_cursor = y_bottom
            for index, child in enumerate(children):
                child.draw(cell, annotations, x_left, y_cursor)
                y_cursor += child.height
                if index < len(children) - 1 and junction_has_contact[index]:
                    strip = Rect(x_left, y_cursor, x_left + width,
                                 y_cursor + rules.contact_length)
                    cell.add_rect("contact", strip)
                    cell.add_rect("metal1", strip)
                    annotations.contacts.append(
                        ContactRegion(strip, junction_nets[index])
                    )
                    y_cursor += rules.contact_length

        has_interior = any(child.has_interior_branch for child in children)
        return _Block(width=width, height=height, draw=draw,
                      has_interior_branch=has_interior)

    # -- parallel composition ------------------------------------------------------

    def _plan_parallel(self, node: SPParallel) -> _Block:
        rules = self.rules
        children = [self.plan(child) for child in node.children]
        separator = rules.etch_width if self.etched else rules.gate_gate_spacing
        width = sum(child.width for child in children)
        width += (len(children) - 1) * separator
        height = max(child.height for child in children)
        if len(children) >= 3:
            # Interior branches can only be routed over the gate region.
            self.uses_vertical_gating = True

        def draw(cell: LayoutCell, annotations: CellAnnotations,
                 x_left: float, y_bottom: float) -> None:
            x_cursor = x_left
            for index, child in enumerate(children):
                child.draw(cell, annotations, x_cursor, y_bottom)
                x_cursor += child.width
                if index < len(children) - 1:
                    if self.etched:
                        etch_rect = Rect(x_cursor, y_bottom, x_cursor + separator,
                                         y_bottom + height)
                        cell.add_rect("cnt_etch", etch_rect)
                        annotations.etches.append(EtchRegion(etch_rect))
                    x_cursor += separator

        has_interior = len(children) >= 3 or any(
            child.has_interior_branch for child in children
        )
        return _Block(width=width, height=height, draw=draw,
                      has_interior_branch=has_interior)


def _grid_network_layout(
    gate_tree: SPNode,
    device: str,
    bottom_net: str,
    top_net: str,
    signals: Tuple[str, ...],
    etched: bool,
    unit_width: float,
    rules: DesignRules,
    cell_name: str,
) -> NetworkLayoutResult:
    widths = [factor * unit_width for factor in leaf_width_factors(gate_tree)]
    planner = _GridPlanner(rules, device, etched, widths)
    block = planner.plan(gate_tree)

    cell = LayoutCell(cell_name)
    annotations = CellAnnotations(
        cell_name=cell_name, inputs=signals, output_net="out"
    )

    # Bottom contact strip, the block, then the top contact strip.
    width = block.width
    bottom_strip = Rect(0.0, 0.0, width, rules.contact_length)
    cell.add_rect("contact", bottom_strip)
    cell.add_rect("metal1", bottom_strip)
    annotations.contacts.append(ContactRegion(bottom_strip, bottom_net))

    block.draw(cell, annotations, 0.0, rules.contact_length)

    y_top_strip = rules.contact_length + block.height
    top_strip = Rect(0.0, y_top_strip, width, y_top_strip + rules.contact_length)
    cell.add_rect("contact", top_strip)
    cell.add_rect("metal1", top_strip)
    annotations.contacts.append(ContactRegion(top_strip, top_net))

    height = y_top_strip + rules.contact_length
    active_rect = Rect(0.0, 0.0, width, height)
    cell.add_rect("cnt", active_rect)
    doping_layer = "nplus" if device == "nfet" else "pplus"
    cell.add_rect(doping_layer, active_rect)
    annotations.actives.append(
        ActiveRegion(active_rect, "n" if device == "nfet" else "p")
    )
    annotations.requires_vertical_gating = etched and planner.uses_vertical_gating
    attach_annotations(cell, annotations)
    cell.properties["technique"] = "baseline" if etched else "vulnerable"

    etch_count = len(annotations.etches)
    return NetworkLayoutResult(
        cell=cell,
        annotations=annotations,
        width=width,
        height=height,
        active_area=active_rect.area,
        contact_count=len(annotations.contacts),
        gate_count=len(annotations.gates),
        etch_count=etch_count,
    )


def baseline_network_layout(
    gate: GateNetworks,
    which: str,
    unit_width: float = 4.0,
    rules: DesignRules = CNFET_RULES,
) -> NetworkLayoutResult:
    """Patil-style etched-region immune layout of a gate's PUN or PDN.

    ``which`` selects ``"pun"`` or ``"pdn"``.
    """
    tree, device, bottom, top = _select_network(gate, which)
    return _grid_network_layout(
        tree, device, bottom, top, gate.inputs, etched=True,
        unit_width=unit_width, rules=rules,
        cell_name=f"{gate.name}_{which}_baseline",
    )


def vulnerable_network_layout(
    gate: GateNetworks,
    which: str,
    unit_width: float = 4.0,
    rules: DesignRules = CNFET_RULES,
) -> NetworkLayoutResult:
    """Misaligned-CNT-vulnerable layout (no etched separators) of a gate's
    PUN or PDN — the negative example of Figure 2(b)."""
    tree, device, bottom, top = _select_network(gate, which)
    return _grid_network_layout(
        tree, device, bottom, top, gate.inputs, etched=False,
        unit_width=unit_width, rules=rules,
        cell_name=f"{gate.name}_{which}_vulnerable",
    )


def _select_network(gate: GateNetworks, which: str):
    which = which.lower()
    if which == "pun":
        return gate.pun_tree, "pfet", "out", "vdd"
    if which == "pdn":
        return gate.pdn_tree, "nfet", "gnd", "out"
    raise LayoutGenerationError(f"which must be 'pun' or 'pdn', got {which!r}")
