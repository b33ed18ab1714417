"""Carbon-nanotube instances for the mispositioning analysis.

A CNT is modelled as a straight line segment in the cell plane.  Nominal
(intended) CNTs run exactly along the CNT growth axis underneath the gates;
mispositioned CNTs start anywhere in the cell and deviate from the growth
axis by a small random angle, which is the defect mechanism of Section III
(and of Patil et al. [6]): such a tube can wander between device columns
and, if nothing stops it, connect two metal contacts without passing under
the gate that is supposed to control it.

Two representations are provided:

* :class:`CNTInstance` — one tube as a pair of :class:`Point` objects, the
  unit callers build and inspect populations in (and the unit the scalar
  reference walk in ``tests/reference.py`` iterates over).
* :class:`CNTBatch` — a whole population as ``(n, 2)`` NumPy coordinate
  arrays, the unit the batched Monte Carlo engine consumes.

:func:`sample_mispositioned_batch` draws entire populations with vectorized
NumPy sampling while consuming the underlying uniform stream in exactly the
same order as the historical one-tube-at-a-time loop (``x``, ``y``,
``angle``, ``metallic`` per tube), so a fixed seed produces bit-identical
defect populations drawn in one batch or tube by tube
(:func:`random_mispositioned_cnts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ImmunityAnalysisError
from ..geometry.primitives import Point, Rect
from ..core.spec import CellAnnotations


@dataclass(frozen=True)
class CNTInstance:
    """One carbon nanotube, as a straight segment from ``start`` to ``end``.

    ``metallic`` marks a tube whose chirality makes it conduct regardless of
    any gate above it.  The paper assumes metallic tubes are removed during
    manufacturing (Section II); the flag exists so that assumption can be
    stress-tested by injecting residual metallic tubes into the immunity
    analysis.
    """

    start: Point
    end: Point
    mispositioned: bool = False
    metallic: bool = False

    @property
    def length(self) -> float:
        return self.start.distance_to(self.end)

    def point_at(self, t: float) -> Point:
        """Point at normalised parameter ``t`` in [0, 1]."""
        return Point(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )


@dataclass(frozen=True, eq=False)
class CNTBatch:
    """A population of CNTs as flat coordinate arrays.

    ``starts`` and ``ends`` are ``(n, 2)`` float arrays of segment
    endpoints; ``metallic`` and ``mispositioned`` are ``(n,)`` boolean
    arrays (a scalar bool broadcasts to every tube).  This is the
    representation the batched immunity engine evaluates directly; it
    round-trips losslessly to a list of :class:`CNTInstance`.

    Equality is element-wise over the arrays (the dataclass-generated
    ``__eq__`` would raise on ndarray fields); batches are unhashable.
    """

    starts: np.ndarray
    ends: np.ndarray
    metallic: np.ndarray
    mispositioned: np.ndarray = True

    def __post_init__(self):
        if self.starts.shape != self.ends.shape or self.starts.ndim != 2 \
                or self.starts.shape[1] != 2:
            raise ImmunityAnalysisError(
                f"CNTBatch needs (n, 2) start/end arrays, got "
                f"{self.starts.shape} and {self.ends.shape}"
            )
        count = self.starts.shape[0]
        for name in ("metallic", "mispositioned"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                object.__setattr__(
                    self, name,
                    np.full(count, bool(getattr(self, name)), dtype=bool),
                )
        for name in ("metallic", "mispositioned"):
            if getattr(self, name).shape != (count,):
                raise ImmunityAnalysisError(
                    f"CNTBatch {name} flags must be ({count},), "
                    f"got {getattr(self, name).shape}"
                )

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNTBatch):
            return NotImplemented
        return (
            np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.metallic, other.metallic)
            and np.array_equal(self.mispositioned, other.mispositioned)
        )

    __hash__ = None

    @classmethod
    def empty(cls) -> "CNTBatch":
        return cls(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=bool))

    @classmethod
    def from_instances(cls, cnts: Sequence[CNTInstance]) -> "CNTBatch":
        """Pack a sequence of tubes into coordinate arrays."""
        starts = np.array([[c.start.x, c.start.y] for c in cnts], dtype=float)
        ends = np.array([[c.end.x, c.end.y] for c in cnts], dtype=float)
        metallic = np.array([c.metallic for c in cnts], dtype=bool)
        mispositioned = np.array([c.mispositioned for c in cnts], dtype=bool)
        return cls(starts.reshape(-1, 2), ends.reshape(-1, 2), metallic,
                   mispositioned=mispositioned)

    def to_instances(self) -> List[CNTInstance]:
        """Unpack into per-tube :class:`CNTInstance` objects."""
        return [
            CNTInstance(
                Point(float(self.starts[i, 0]), float(self.starts[i, 1])),
                Point(float(self.ends[i, 0]), float(self.ends[i, 1])),
                mispositioned=bool(self.mispositioned[i]),
                metallic=bool(self.metallic[i]),
            )
            for i in range(len(self))
        ]


def nominal_cnts(
    annotations: CellAnnotations,
    pitch: float = 1.0,
) -> List[CNTInstance]:
    """The intended, perfectly aligned CNTs of a cell.

    CNTs are placed at ``pitch`` (λ) across every lane where a gate exists,
    spanning the full extent of the active region that contains the gate
    along x, the growth axis of assembled standard cells, whose strips
    run horizontally.
    """
    if pitch <= 0:
        raise ImmunityAnalysisError("pitch must be positive")

    cnts: List[CNTInstance] = []
    for active in annotations.actives:
        for lane_start, lane_end in _gate_lanes_in_active(annotations,
                                                          active.rect):
            position = lane_start + pitch / 2.0
            while position < lane_end:
                cnts.append(
                    CNTInstance(
                        Point(active.rect.x1, position),
                        Point(active.rect.x2, position),
                    )
                )
                position += pitch
    if not cnts:
        raise ImmunityAnalysisError(
            f"Cell {annotations.cell_name!r} produced no nominal CNTs "
            "(no gates over active regions?)"
        )
    return cnts


def _gate_lanes_in_active(annotations: CellAnnotations,
                          active: Rect) -> List[Tuple[float, float]]:
    """The y intervals covered by gates inside one active region."""
    intervals: List[Tuple[float, float]] = []
    for gate in annotations.gates:
        overlap = gate.rect.intersection(active)
        if overlap is None or overlap.is_degenerate(1e-9):
            continue
        intervals.append((overlap.y1, overlap.y2))
    return _merge_intervals(intervals)


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    if not intervals:
        return []
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + 1e-9:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def sample_mispositioned_batch(
    annotations: CellAnnotations,
    count: int,
    rng: np.random.Generator,
    max_angle_deg: float = 15.0,
    region: Optional[Rect] = None,
    metallic_fraction: float = 0.0,
) -> CNTBatch:
    """Draw ``count`` mispositioned CNTs as one vectorized batch.

    Each tube passes through a uniformly random point of the cell (or the
    supplied ``region``) at an angle drawn uniformly within
    ``±max_angle_deg`` of the growth axis (x), and is long enough to span the
    whole cell, matching the "mispositioned but still roughly aligned"
    defects the paper considers.  ``metallic_fraction`` of the tubes are
    additionally marked metallic (the paper assumes this fraction is driven
    to zero by processing; non-zero values stress-test that assumption).

    The four uniform draws of each tube (``x``, ``y``, ``angle``,
    ``metallic``) are consumed contiguously from ``rng``, so the values are
    bit-identical to drawing the tubes one at a time — the seed contract the
    Monte Carlo reference loop relies on.
    """
    if not 0.0 <= metallic_fraction <= 1.0:
        raise ImmunityAnalysisError("metallic_fraction must be within [0, 1]")
    if count < 0:
        raise ImmunityAnalysisError("count must be non-negative")
    if region is None:
        region = _cell_extent(annotations)
    span = math.hypot(region.width, region.height) * 1.2

    draws = rng.uniform(size=(count, 4))
    # ``low + (high - low) * u`` is exactly what Generator.uniform(low, high)
    # computes, keeping the scaled values bitwise equal to per-tube draws.
    x = region.x1 + (region.x2 - region.x1) * draws[:, 0]
    y = region.y1 + (region.y2 - region.y1) * draws[:, 1]
    angle_deg = -max_angle_deg + (max_angle_deg - -max_angle_deg) * draws[:, 2]
    angle = np.radians(angle_deg)
    direction = np.column_stack([np.cos(angle), np.sin(angle)])
    half = span / 2.0
    centers = np.column_stack([x, y])
    starts = centers - direction * half
    ends = centers + direction * half
    metallic = draws[:, 3] < metallic_fraction
    return CNTBatch(starts, ends, metallic, mispositioned=True)


def random_mispositioned_cnts(
    annotations: CellAnnotations,
    count: int,
    rng: np.random.Generator,
    max_angle_deg: float = 15.0,
    region: Optional[Rect] = None,
    metallic_fraction: float = 0.0,
) -> List[CNTInstance]:
    """Draw ``count`` mispositioned CNTs as :class:`CNTInstance` objects.

    Thin wrapper over :func:`sample_mispositioned_batch` for callers that
    work tube by tube (:meth:`ImmunityChecker.check`, the scalar reference
    in ``tests/reference.py``); both entry points consume the random
    stream identically.
    """
    batch = sample_mispositioned_batch(
        annotations, count, rng, max_angle_deg=max_angle_deg,
        region=region, metallic_fraction=metallic_fraction,
    )
    return batch.to_instances()


def _cell_extent(annotations: CellAnnotations) -> Rect:
    rects = [a.rect for a in annotations.actives]
    rects += [c.rect for c in annotations.contacts]
    rects += [g.rect for g in annotations.gates]
    if not rects:
        raise ImmunityAnalysisError(
            f"Cell {annotations.cell_name!r} has no annotated geometry"
        )
    extent = rects[0]
    for rect in rects[1:]:
        extent = extent.union_bbox(rect)
    return extent
