"""Hierarchical layout database.

A :class:`LayoutCell` holds rectangles per layer, text labels (pins) and
instances of other cells; a :class:`Layout` is a collection of cells with a
designated top.  The layout generators in :mod:`repro.core` emit cells in λ
units; the GDSII writer converts to database units at stream-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import GeometryError, LayoutGenerationError
from .primitives import Point, Rect, bounding_box, total_area
from .transform import Orientation, Transform


@dataclass(frozen=True)
class Label:
    """A text label attached to a layer (used for pins and net names)."""

    text: str
    position: Point
    layer: str

    def transformed(self, transform: Transform) -> "Label":
        """Label moved by a placement transform."""
        return Label(self.text, transform.apply_point(self.position), self.layer)


@dataclass(frozen=True)
class Pin:
    """A named terminal of a cell: a shape on a layer plus a direction."""

    name: str
    rect: Rect
    layer: str
    direction: str = "inout"  # "input" | "output" | "inout" | "power"

    def transformed(self, transform: Transform) -> "Pin":
        """Pin moved by a placement transform."""
        return Pin(self.name, transform.apply_rect(self.rect), self.layer, self.direction)


@dataclass(frozen=True)
class Instance:
    """A placed instance of another cell."""

    cell_name: str
    name: str
    transform: Transform


class LayoutCell:
    """A single layout cell: shapes, labels, pins and sub-instances."""

    def __init__(self, name: str):
        if not name:
            raise GeometryError("Cell name must be non-empty")
        self.name = name
        self._shapes: Dict[str, List[Rect]] = {}
        self.labels: List[Label] = []
        self.pins: List[Pin] = []
        self.instances: List[Instance] = []
        #: free-form properties (cell height class, scheme, sizing, ...)
        self.properties: Dict[str, object] = {}

    # -- construction --------------------------------------------------------

    def add_rect(self, layer: str, rect: Rect) -> Rect:
        """Add a rectangle on ``layer`` and return it."""
        if rect.is_degenerate():
            raise GeometryError(
                f"Degenerate rectangle {rect} on layer {layer!r} in cell {self.name!r}"
            )
        self._shapes.setdefault(layer, []).append(rect)
        return rect

    def add_label(self, text: str, position: Point, layer: str) -> Label:
        """Attach a text label."""
        label = Label(text, position, layer)
        self.labels.append(label)
        return label

    def add_pin(self, name: str, rect: Rect, layer: str, direction: str = "inout") -> Pin:
        """Declare a pin (also adds its shape and label)."""
        pin = Pin(name, rect, layer, direction)
        self.pins.append(pin)
        self.add_rect(layer, rect)
        self.add_label(name, rect.center, layer)
        return pin

    def add_instance(
        self,
        cell_name: str,
        name: str,
        dx: float = 0.0,
        dy: float = 0.0,
        orientation: Orientation = Orientation.R0,
    ) -> Instance:
        """Place an instance of another cell."""
        instance = Instance(cell_name, name, Transform(dx, dy, orientation))
        self.instances.append(instance)
        return instance

    # -- queries --------------------------------------------------------------

    def layers(self) -> List[str]:
        """Names of layers that carry at least one shape."""
        return sorted(layer for layer, rects in self._shapes.items() if rects)

    def shapes(self, layer: str) -> List[Rect]:
        """Rectangles on ``layer`` (empty list when none)."""
        return list(self._shapes.get(layer, []))

    def all_shapes(self) -> Iterator[Tuple[str, Rect]]:
        """Iterate over ``(layer, rect)`` pairs of local shapes."""
        for layer, rects in self._shapes.items():
            for rect in rects:
                yield layer, rect

    def shape_count(self) -> int:
        """Number of local rectangles."""
        return sum(len(rects) for rects in self._shapes.values())

    def pin(self, name: str) -> Pin:
        """Look up a pin by name."""
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise LayoutGenerationError(
            f"Cell {self.name!r} has no pin {name!r}; pins: {[p.name for p in self.pins]}"
        )

    def bbox(self, layers: Optional[Iterable[str]] = None) -> Optional[Rect]:
        """Bounding box of the local shapes, optionally restricted to
        ``layers`` (instances are not included; use :meth:`Layout.flatten`)."""
        selected: List[Rect] = []
        wanted = set(layers) if layers is not None else None
        for layer, rects in self._shapes.items():
            if wanted is None or layer in wanted:
                selected.extend(rects)
        return bounding_box(selected)

    def boundary(self) -> Rect:
        """The cell abutment boundary: the ``boundary`` layer shape when
        present, else the bounding box of all local shapes."""
        boundary_shapes = self._shapes.get("boundary")
        if boundary_shapes:
            return bounding_box(boundary_shapes)
        box = self.bbox()
        if box is None:
            raise LayoutGenerationError(f"Cell {self.name!r} is empty; no boundary available")
        return box

    def area(self, layer: Optional[str] = None) -> float:
        """Area of the cell.

        Without ``layer`` this is the boundary area (standard-cell area);
        with ``layer`` it is the overlap-free union area of that layer.
        """
        if layer is None:
            box = self.boundary()
            return box.area
        return total_area(self._shapes.get(layer, []))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LayoutCell({self.name!r}, shapes={self.shape_count()}, "
            f"pins={len(self.pins)}, instances={len(self.instances)})"
        )


class Layout:
    """A collection of cells forming a (possibly hierarchical) design."""

    def __init__(self, name: str = "design"):
        self.name = name
        self._cells: Dict[str, LayoutCell] = {}
        self.top_name: Optional[str] = None

    def add_cell(self, cell: LayoutCell, top: bool = False) -> LayoutCell:
        """Register a cell; the first cell added becomes the top unless
        overridden later."""
        if cell.name in self._cells:
            raise GeometryError(f"Duplicate cell {cell.name!r} in layout {self.name!r}")
        self._cells[cell.name] = cell
        if top or self.top_name is None:
            self.top_name = cell.name
        return cell

    def new_cell(self, name: str, top: bool = False) -> LayoutCell:
        """Create, register and return a new empty cell."""
        return self.add_cell(LayoutCell(name), top=top)

    def cell(self, name: str) -> LayoutCell:
        """Look up a cell by name."""
        try:
            return self._cells[name]
        except KeyError:
            raise GeometryError(
                f"Unknown cell {name!r}; cells: {sorted(self._cells)}"
            ) from None

    def cells(self) -> List[LayoutCell]:
        """All cells (unordered)."""
        return list(self._cells.values())

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def top(self) -> LayoutCell:
        """The designated top cell."""
        if self.top_name is None:
            raise GeometryError(f"Layout {self.name!r} has no cells")
        return self.cell(self.top_name)

    def flatten(self, cell_name: Optional[str] = None, max_depth: int = 32) -> LayoutCell:
        """Return a new cell with the full hierarchy under ``cell_name``
        (default: top) flattened into local shapes, labels and pins."""
        root = self.cell(cell_name) if cell_name else self.top()
        flat = LayoutCell(f"{root.name}__flat")
        flat.properties.update(root.properties)
        self._flatten_into(root, flat, Transform(), depth=0, max_depth=max_depth)
        return flat

    def _flatten_into(
        self,
        cell: LayoutCell,
        target: LayoutCell,
        transform: Transform,
        depth: int,
        max_depth: int,
    ) -> None:
        if depth > max_depth:
            raise GeometryError(
                f"Hierarchy deeper than {max_depth} levels (recursive instances?)"
            )
        for layer, rect in cell.all_shapes():
            target.add_rect(layer, transform.apply_rect(rect))
        for label in cell.labels:
            target.labels.append(label.transformed(transform))
        for pin in cell.pins:
            target.pins.append(pin.transformed(transform))
        for instance in cell.instances:
            child = self.cell(instance.cell_name)
            child_transform = transform.compose(instance.transform)
            self._flatten_into(child, target, child_transform, depth + 1, max_depth)
