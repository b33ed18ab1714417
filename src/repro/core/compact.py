"""The paper's contribution: compact misaligned-CNT-immune layouts.

Section III linearises each pull-up / pull-down network along an Euler path
of its transistor graph (metal contacts = nodes, gates = edges).  The
resulting layout is a **single CNT column** in which gates and contacts
alternate; wherever the Euler path revisits a net, a *redundant* metal
contact is placed instead of the etched region the baseline technique [6]
needs.  Because every gate spans the full column width and any two contacts
are separated by at least one gate, a mispositioned CNT can never connect
two contacts without passing under the correct gates — the layout is
functionally immune by construction, without vertical gating and within
conventional 65 nm rules.

Series junctions that the Euler path visits exactly once do not need a
metal contact at all (ordinary diffusion/CNT sharing), which is what keeps
the column short.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LayoutGenerationError
from ..euler.path import LinearizedNetwork, euler_path_for_network
from ..geometry.layout import LayoutCell
from ..logic.network import SPNode, Transistor, TransistorNetwork
from ..tech.lambda_rules import CNFET_RULES, DesignRules
from .column import (
    ColumnElement,
    ContactElement,
    EtchElement,
    GateElement,
    build_column,
    column_stack_height,
)
from .sizing import width_map_for_network
from .spec import CellAnnotations, NetworkLayoutResult, attach_annotations


@dataclass(frozen=True)
class CompactPlan:
    """The element stack of a compact network column, before drawing."""

    elements: Tuple[ColumnElement, ...]
    column_width: float
    redundant_contacts: int
    omitted_junctions: int
    linearization: LinearizedNetwork


def plan_compact_network(
    network: TransistorNetwork,
    tree: Optional[SPNode] = None,
    unit_width: float = 4.0,
    rules: DesignRules = CNFET_RULES,
) -> CompactPlan:
    """Derive the column element stack for a network via its Euler path."""
    linearization = euler_path_for_network(network)
    widths: Dict[str, float]
    if tree is not None:
        widths = width_map_for_network(tree, network, unit_width)
    else:
        widths = {t.name: unit_width for t in network.transistors}
    column_width = max(max(widths.values()), rules.min_transistor_width)

    terminal_nets = {network.power_net, network.output_net}
    net_visits = Counter(linearization.contact_nets())

    elements: List[ColumnElement] = []
    redundant = 0
    omitted = 0
    break_positions = set(linearization.breaks)

    for index, item in enumerate(linearization.elements):
        if isinstance(item, Transistor):
            elements.append(GateElement(item.gate))
            continue
        net = item
        needs_contact = (
            net in terminal_nets
            or net_visits[net] > 1
            or index in break_positions
        )
        if not needs_contact:
            omitted += 1
            continue
        if elements and isinstance(elements[-1], ContactElement):
            # Two adjacent contacts only happen at a trail break between
            # different nets; an etched region must separate them so the
            # doped CNT in between does not short the nets.  The standard
            # cells of the paper never hit this path.
            elements.append(EtchElement())
        elements.append(ContactElement(net))

    for net, visits in net_visits.items():
        if visits > 1 and net not in terminal_nets:
            redundant += visits - 1
    for net in terminal_nets:
        if net_visits[net] > 1:
            redundant += net_visits[net] - 1

    _validate_alternation(elements)
    return CompactPlan(
        elements=tuple(elements),
        column_width=column_width,
        redundant_contacts=redundant,
        omitted_junctions=omitted,
        linearization=linearization,
    )


def _validate_alternation(elements: Sequence[ColumnElement]) -> None:
    if not elements:
        raise LayoutGenerationError("Compact plan produced an empty column")
    if not isinstance(elements[0], ContactElement) or not isinstance(
        elements[-1], ContactElement
    ):
        raise LayoutGenerationError(
            "A compact column must start and end with a metal contact"
        )


def compact_network_layout(
    network: TransistorNetwork,
    tree: Optional[SPNode] = None,
    unit_width: float = 4.0,
    rules: DesignRules = CNFET_RULES,
    cell_name: Optional[str] = None,
) -> NetworkLayoutResult:
    """Generate the compact (Euler-path) layout of one network as a cell."""
    plan = plan_compact_network(network, tree, unit_width, rules)
    name = cell_name or f"compact_{network.device}_{network.power_net}"
    cell = LayoutCell(name)
    annotations = CellAnnotations(
        cell_name=name,
        inputs=tuple(network.signals()),
        output_net="out",
    )
    column = build_column(
        cell=cell,
        annotations=annotations,
        elements=plan.elements,
        device=network.device,
        width=plan.column_width,
        rules=rules,
    )
    attach_annotations(cell, annotations)
    cell.properties["technique"] = "compact"
    cell.properties["redundant_contacts"] = plan.redundant_contacts
    cell.properties["column_width"] = plan.column_width

    etch_count = sum(1 for e in plan.elements if isinstance(e, EtchElement))
    return NetworkLayoutResult(
        cell=cell,
        annotations=annotations,
        width=plan.column_width,
        height=column.height,
        active_area=column.active_rect.area,
        contact_count=len(column.contact_rects),
        gate_count=len(column.gate_rects),
        etch_count=etch_count,
    )


def compact_network_height(
    network: TransistorNetwork,
    tree: Optional[SPNode] = None,
) -> float:
    """Column height of the compact layout at the 4 λ unit width, without
    drawing it (used by the analytical area model)."""
    plan = plan_compact_network(network, tree, 4.0)
    return column_stack_height(CNFET_RULES, plan.elements)
