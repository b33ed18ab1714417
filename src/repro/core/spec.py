"""Layout-level annotations shared by all CNFET cell generators.

Generated cells are plain :class:`~repro.geometry.layout.LayoutCell` objects
(rectangles on layers), but the immunity analysis and the extraction step
need to know *what each rectangle means electrically*: which poly rectangle
is the gate of which signal, which metal rectangle contacts which net, where
the CNT (active) regions are and how they are doped, and where CNTs have
been etched away.  A :class:`CellAnnotations` object carries exactly that
and is attached to the cell under ``cell.properties["annotations"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import LayoutGenerationError
from ..geometry.layout import LayoutCell
from ..geometry.primitives import Rect

#: property key under which annotations are stored on a LayoutCell
ANNOTATIONS_KEY = "annotations"


@dataclass(frozen=True)
class GateRegion:
    """A poly gate rectangle: controls the CNTs it covers."""

    rect: Rect
    signal: str
    device: str  # "nfet" | "pfet"

    def __post_init__(self):
        if self.device not in ("nfet", "pfet"):
            raise LayoutGenerationError(f"Unknown device type {self.device!r}")


@dataclass(frozen=True)
class ContactRegion:
    """A source/drain metal contact rectangle tied to a net."""

    rect: Rect
    net: str


@dataclass(frozen=True)
class ActiveRegion:
    """A CNT-plane rectangle and the doping applied outside gate masks."""

    rect: Rect
    doping: str  # "p" for PUN regions, "n" for PDN regions

    def __post_init__(self):
        if self.doping not in ("n", "p"):
            raise LayoutGenerationError(f"Unknown doping {self.doping!r}")


@dataclass(frozen=True)
class EtchRegion:
    """A rectangle where CNTs are removed."""

    rect: Rect


@dataclass
class CellAnnotations:
    """Electrical meaning of a generated cell's shapes."""

    cell_name: str
    gates: List[GateRegion] = field(default_factory=list)
    contacts: List[ContactRegion] = field(default_factory=list)
    actives: List[ActiveRegion] = field(default_factory=list)
    etches: List[EtchRegion] = field(default_factory=list)
    #: nominal (intended) truth-table inputs in order
    inputs: Tuple[str, ...] = ()
    #: name of the output net
    output_net: str = "out"
    #: whether the construction relies on vias over the gate (vertical
    #: gating) for intra-cell routing — conventional 65 nm rules forbid it
    requires_vertical_gating: bool = False

    def nets(self) -> List[str]:
        """All contact nets in first-use order."""
        seen: List[str] = []
        for contact in self.contacts:
            if contact.net not in seen:
                seen.append(contact.net)
        return seen

    def signals(self) -> List[str]:
        """All gate signals in first-use order."""
        seen: List[str] = []
        for gate in self.gates:
            if gate.signal not in seen:
                seen.append(gate.signal)
        return seen

    def merged_with(self, other: "CellAnnotations",
                    name: Optional[str] = None) -> "CellAnnotations":
        """Combine annotations of two sub-layouts placed in one cell."""
        merged = CellAnnotations(
            cell_name=name or self.cell_name,
            gates=self.gates + other.gates,
            contacts=self.contacts + other.contacts,
            actives=self.actives + other.actives,
            etches=self.etches + other.etches,
            inputs=tuple(dict.fromkeys(self.inputs + other.inputs)),
            output_net=self.output_net,
            requires_vertical_gating=(
                self.requires_vertical_gating or other.requires_vertical_gating
            ),
        )
        return merged

    def translated(self, dx: float, dy: float) -> "CellAnnotations":
        """Annotations shifted by ``(dx, dy)`` (used when sub-layouts are
        placed inside a larger cell)."""
        return CellAnnotations(
            cell_name=self.cell_name,
            gates=[GateRegion(g.rect.translated(dx, dy), g.signal, g.device) for g in self.gates],
            contacts=[ContactRegion(c.rect.translated(dx, dy), c.net) for c in self.contacts],
            actives=[ActiveRegion(a.rect.translated(dx, dy), a.doping) for a in self.actives],
            etches=[EtchRegion(e.rect.translated(dx, dy)) for e in self.etches],
            inputs=self.inputs,
            output_net=self.output_net,
            requires_vertical_gating=self.requires_vertical_gating,
        )

    def transformed(self, transform) -> "CellAnnotations":
        """Annotations mapped through a placement transform (rotation /
        mirror / translation), mirroring what happens to the geometry."""
        return CellAnnotations(
            cell_name=self.cell_name,
            gates=[GateRegion(transform.apply_rect(g.rect), g.signal, g.device)
                   for g in self.gates],
            contacts=[ContactRegion(transform.apply_rect(c.rect), c.net)
                      for c in self.contacts],
            actives=[ActiveRegion(transform.apply_rect(a.rect), a.doping)
                     for a in self.actives],
            etches=[EtchRegion(transform.apply_rect(e.rect)) for e in self.etches],
            inputs=self.inputs,
            output_net=self.output_net,
            requires_vertical_gating=self.requires_vertical_gating,
        )


def attach_annotations(cell: LayoutCell, annotations: CellAnnotations) -> None:
    """Store annotations on a cell."""
    cell.properties[ANNOTATIONS_KEY] = annotations


def get_annotations(cell: LayoutCell) -> CellAnnotations:
    """Retrieve the annotations of a generated cell."""
    annotations = cell.properties.get(ANNOTATIONS_KEY)
    if not isinstance(annotations, CellAnnotations):
        raise LayoutGenerationError(
            f"Cell {cell.name!r} has no CNFET annotations; was it produced by a "
            "repro.core generator?"
        )
    return annotations


@dataclass(frozen=True)
class NetworkLayoutResult:
    """The outcome of laying out one pull-up or pull-down network."""

    cell: LayoutCell
    annotations: CellAnnotations
    width: float            # horizontal extent in λ
    height: float           # vertical extent in λ
    active_area: float      # area of the CNT (active) rectangles in λ²
    contact_count: int
    gate_count: int
    etch_count: int

    @property
    def bbox_area(self) -> float:
        """Bounding-box area of the network layout in λ²."""
        return self.width * self.height
