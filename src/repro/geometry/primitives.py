"""Geometric primitives: points, rectangles and manhattan polygons.

All coordinates are plain floats whose unit is decided by the caller (the
layout generators work in λ and convert to nanometres only when streaming
out GDSII).  Rectangles are axis-aligned and normalised on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import GeometryError


@dataclass(frozen=True)
class Point:
    """A 2-D point."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        """Return the point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def scaled(self, factor: float) -> "Point":
        """Return the point scaled about the origin."""
        return Point(self.x * factor, self.y * factor)

    def rotated90(self, times: int = 1) -> "Point":
        """Return the point rotated by ``times`` × 90° counter-clockwise
        about the origin."""
        point = self
        for _ in range(times % 4):
            point = Point(-point.y, point.x)
        return point

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle, normalised so ``x1 <= x2`` and ``y1 <= y2``."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x2 < self.x1 or self.y2 < self.y1:
            x1, x2 = sorted((self.x1, self.x2))
            y1, y2 = sorted((self.y1, self.y2))
            object.__setattr__(self, "x1", x1)
            object.__setattr__(self, "x2", x2)
            object.__setattr__(self, "y1", y1)
            object.__setattr__(self, "y2", y2)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_corners(cls, p1: Point, p2: Point) -> "Rect":
        """Rectangle spanned by two opposite corners."""
        return cls(min(p1.x, p2.x), min(p1.y, p2.y), max(p1.x, p2.x), max(p1.y, p2.y))

    @classmethod
    def from_size(cls, x: float, y: float, width: float, height: float) -> "Rect":
        """Rectangle with lower-left corner ``(x, y)`` and the given size."""
        if width < 0 or height < 0:
            raise GeometryError(f"Rect size must be non-negative, got {width} x {height}")
        return cls(x, y, x + width, y + height)

    @classmethod
    def centered(cls, center: Point, width: float, height: float) -> "Rect":
        """Rectangle of the given size centred on ``center``."""
        if width < 0 or height < 0:
            raise GeometryError(f"Rect size must be non-negative, got {width} x {height}")
        return cls(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    # -- basic properties ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def lower_left(self) -> Point:
        return Point(self.x1, self.y1)

    @property
    def upper_right(self) -> Point:
        return Point(self.x2, self.y2)

    def is_degenerate(self, tolerance: float = 0.0) -> bool:
        """True when either dimension is no larger than ``tolerance``."""
        return self.width <= tolerance or self.height <= tolerance

    def corners(self) -> List[Point]:
        """The four corners, counter-clockwise from the lower-left."""
        return [
            Point(self.x1, self.y1),
            Point(self.x2, self.y1),
            Point(self.x2, self.y2),
            Point(self.x1, self.y2),
        ]

    # -- geometric operations -------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Rect":
        """Rectangle shifted by ``(dx, dy)``."""
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: float) -> "Rect":
        """Rectangle scaled about the origin."""
        return Rect(self.x1 * factor, self.y1 * factor, self.x2 * factor, self.y2 * factor)

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown (or shrunk for negative margins) on every side."""
        x1, y1 = self.x1 - margin, self.y1 - margin
        x2, y2 = self.x2 + margin, self.y2 + margin
        if x2 < x1 or y2 < y1:
            raise GeometryError(f"Shrinking {self} by {margin} collapses it")
        return Rect(x1, y1, x2, y2)

    def contains_point(self, point: Point, strict: bool = False) -> bool:
        """Whether ``point`` lies inside the rectangle (boundary counts
        unless ``strict``)."""
        if strict:
            return self.x1 < point.x < self.x2 and self.y1 < point.y < self.y2
        return self.x1 <= point.x <= self.x2 and self.y1 <= point.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies fully inside this rectangle."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def intersects(self, other: "Rect", strict: bool = True) -> bool:
        """Whether the rectangles overlap.  With ``strict`` the overlap must
        have positive area (shared edges do not count)."""
        if strict:
            return (
                self.x1 < other.x2
                and other.x1 < self.x2
                and self.y1 < other.y2
                and other.y1 < self.y2
            )
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Overlap rectangle, or ``None`` when the rectangles are disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 < x1 or y2 < y1:
            return None
        return Rect(x1, y1, x2, y2)

    def union_bbox(self, other: "Rect") -> "Rect":
        """Bounding box of both rectangles."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def distance_to(self, other: "Rect") -> float:
        """Minimum separation between the rectangles (0 when they touch or
        overlap)."""
        dx = max(0.0, max(self.x1, other.x1) - min(self.x2, other.x2))
        dy = max(0.0, max(self.y1, other.y1) - min(self.y2, other.y2))
        return math.hypot(dx, dy)


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Bounding box of an iterable of rectangles (``None`` when empty)."""
    box: Optional[Rect] = None
    for rect in rects:
        box = rect if box is None else box.union_bbox(rect)
    return box


def total_area(rects: Sequence[Rect]) -> float:
    """Total area covered by possibly-overlapping rectangles.

    Uses a coordinate-compression sweep so overlaps are counted once; used
    by the area reports where layouts contain abutting shapes.
    """
    rects = [r for r in rects if not r.is_degenerate()]
    if not rects:
        return 0.0
    xs = sorted({r.x1 for r in rects} | {r.x2 for r in rects})
    area = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        strip_width = right - left
        if strip_width <= 0:
            continue
        intervals = sorted(
            (r.y1, r.y2)
            for r in rects
            if r.x1 <= left and r.x2 >= right
        )
        covered = 0.0
        current_start = None
        current_end = None
        for y1, y2 in intervals:
            if current_start is None:
                current_start, current_end = y1, y2
            elif y1 > current_end:
                covered += current_end - current_start
                current_start, current_end = y1, y2
            else:
                current_end = max(current_end, y2)
        if current_start is not None:
            covered += current_end - current_start
        area += covered * strip_width
    return area


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given by its vertex list (no self-intersections
    expected; not checked for performance)."""

    vertices: Tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise GeometryError(
                f"A polygon needs at least 3 vertices, got {len(self.vertices)}"
            )

    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        """Polygon equivalent of a rectangle."""
        return cls(tuple(rect.corners()))

    @property
    def area(self) -> float:
        """Signed-shoelace absolute area."""
        total = 0.0
        points = self.vertices
        for index, point in enumerate(points):
            nxt = points[(index + 1) % len(points)]
            total += point.x * nxt.y - nxt.x * point.y
        return abs(total) / 2.0

    def bbox(self) -> Rect:
        """Axis-aligned bounding box."""
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Polygon shifted by ``(dx, dy)``."""
        return Polygon(tuple(p.translated(dx, dy) for p in self.vertices))

    def contains_point(self, point: Point) -> bool:
        """Ray-casting point-in-polygon test (boundary points may go either
        way; adequate for Monte Carlo sampling)."""
        inside = False
        points = self.vertices
        j = len(points) - 1
        for i in range(len(points)):
            pi, pj = points[i], points[j]
            if (pi.y > point.y) != (pj.y > point.y):
                x_cross = (pj.x - pi.x) * (point.y - pi.y) / (pj.y - pi.y) + pi.x
                if point.x < x_cross:
                    inside = not inside
            j = i
        return inside
