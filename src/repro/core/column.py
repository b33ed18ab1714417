"""Column-stack drawing primitive shared by the layout generators.

Every CNFET network layout in this library is assembled from vertical
*columns*: a strip of CNT plane of some width in which metal contacts, poly
gates and (for the baseline technique) etched regions are stacked bottom-up
along the CNT direction.  Gates and contacts span the full column width so
that a CNT anywhere in the column — aligned or mispositioned — cannot avoid
them; this is the geometric property the immunity analysis verifies.

The builder works in λ units and records both the geometry (rectangles on
the ``cnt`` / ``poly`` / ``contact`` / ``metal1`` / doping / ``cnt_etch``
layers of :func:`repro.tech.layers.cnfet_layer_stack`) and the electrical
annotations (:mod:`repro.core.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import LayoutGenerationError
from ..geometry.layout import LayoutCell
from ..geometry.primitives import Rect
from ..tech.lambda_rules import DesignRules
from .spec import ActiveRegion, CellAnnotations, ContactRegion, EtchRegion, GateRegion


@dataclass(frozen=True)
class ContactElement:
    """A source/drain metal contact tied to ``net``."""

    net: str


@dataclass(frozen=True)
class GateElement:
    """A poly gate controlled by ``signal``."""

    signal: str


@dataclass(frozen=True)
class EtchElement:
    """An etched (CNT-free) break inside the column."""

    pass


ColumnElement = Union[ContactElement, GateElement, EtchElement]


@dataclass
class ColumnResult:
    """Geometry summary of one drawn column."""

    x_left: float
    width: float
    y_bottom: float
    y_top: float
    contact_rects: List[Tuple[Rect, str]]
    gate_rects: List[Tuple[Rect, str]]
    etch_rects: List[Rect]
    active_rect: Rect

    @property
    def height(self) -> float:
        return self.y_top - self.y_bottom


def _spacing_between(rules: DesignRules, below: ColumnElement, above: ColumnElement) -> float:
    """Vertical spacing required between two stacked column elements."""
    below_is_gate = isinstance(below, GateElement)
    above_is_gate = isinstance(above, GateElement)
    if below_is_gate and above_is_gate:
        return rules.gate_gate_spacing
    if below_is_gate or above_is_gate:
        return rules.gate_contact_spacing
    # contact/etch against contact/etch: keep them directly abutted — the
    # etch region itself provides the separation.
    if isinstance(below, EtchElement) or isinstance(above, EtchElement):
        return 0.0
    raise LayoutGenerationError(
        "Two metal contacts may not be stacked without a gate or etched "
        "region between them (the doped CNT in between would short them)"
    )


def _element_height(rules: DesignRules, element: ColumnElement) -> float:
    if isinstance(element, ContactElement):
        return rules.contact_length
    if isinstance(element, GateElement):
        return rules.gate_length
    if isinstance(element, EtchElement):
        return rules.etch_width
    raise LayoutGenerationError(f"Unknown column element {element!r}")


def build_column(
    cell: LayoutCell,
    annotations: CellAnnotations,
    elements: Sequence[ColumnElement],
    device: str,
    width: float,
    rules: DesignRules,
) -> ColumnResult:
    """Draw one column, its lower-left corner at the cell origin, into
    ``cell`` and record its annotations.

    Parameters
    ----------
    elements:
        Bottom-to-top stack of contacts, gates and etched regions.
    device:
        ``"nfet"`` (n⁺ doping) or ``"pfet"`` (p⁺ doping).
    width:
        Column (transistor) width in λ.
    """
    if not elements:
        raise LayoutGenerationError("A column needs at least one element")
    if width < rules.min_transistor_width:
        raise LayoutGenerationError(
            f"Column width {width}λ is below the minimum transistor width "
            f"{rules.min_transistor_width}λ"
        )
    if device not in ("nfet", "pfet"):
        raise LayoutGenerationError(f"Unknown device type {device!r}")

    doping_layer = "nplus" if device == "nfet" else "pplus"
    doping = "n" if device == "nfet" else "p"
    overhang = rules.active_contact_overhang

    contact_rects: List[Tuple[Rect, str]] = []
    gate_rects: List[Tuple[Rect, str]] = []
    etch_rects: List[Rect] = []

    x_left = y_bottom = 0.0
    y_cursor = y_bottom
    previous: Optional[ColumnElement] = None
    for element in elements:
        if previous is not None:
            y_cursor += _spacing_between(rules, previous, element)
        height = _element_height(rules, element)
        if isinstance(element, ContactElement):
            rect = Rect(x_left, y_cursor, x_left + width, y_cursor + height)
            cell.add_rect("contact", rect)
            cell.add_rect("metal1", rect)
            contact_rects.append((rect, element.net))
            annotations.contacts.append(ContactRegion(rect, element.net))
        elif isinstance(element, GateElement):
            rect = Rect(
                x_left - overhang, y_cursor, x_left + width + overhang, y_cursor + height
            )
            cell.add_rect("poly", rect)
            gate_rects.append((rect, element.signal))
            annotations.gates.append(GateRegion(rect, element.signal, device))
        else:  # EtchElement
            rect = Rect(
                x_left - overhang, y_cursor, x_left + width + overhang, y_cursor + height
            )
            cell.add_rect("cnt_etch", rect)
            etch_rects.append(rect)
            annotations.etches.append(EtchRegion(rect))
        y_cursor += height
        previous = element

    y_top = y_cursor
    active_rect = Rect(x_left, y_bottom, x_left + width, y_top)
    cell.add_rect("cnt", active_rect)
    cell.add_rect(doping_layer, active_rect)
    annotations.actives.append(ActiveRegion(active_rect, doping))

    return ColumnResult(
        x_left=x_left,
        width=width,
        y_bottom=y_bottom,
        y_top=y_top,
        contact_rects=contact_rects,
        gate_rects=gate_rects,
        etch_rects=etch_rects,
        active_rect=active_rect,
    )


def column_stack_height(rules: DesignRules, elements: Sequence[ColumnElement]) -> float:
    """Height (in λ) a stack of elements will occupy, without drawing it."""
    if not elements:
        return 0.0
    total = 0.0
    previous: Optional[ColumnElement] = None
    for element in elements:
        if previous is not None:
            total += _spacing_between(rules, previous, element)
        total += _element_height(rules, element)
        previous = element
    return total
