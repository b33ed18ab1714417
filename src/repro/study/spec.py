"""The unified sweep abstraction: named axes, corners and seed policy.

Both vectorized engines grew their own sweep conventions — the immunity
Monte Carlo sweeps ``gates × cnts_per_trial × max_angle_deg ×
metallic_fraction`` while the batch transient engine sweeps ``cell × drive
× load × slew × corner``.  :class:`SweepSpec` is the common front end: an
ordered list of named :class:`Axis` objects expanded either as a full
cartesian **grid** (last axis fastest, ``itertools.product`` order) or
**zip**-wise (all axes in lock-step), yielding :class:`Corner` points that
any engine can consume.

Seed policy
-----------
:meth:`SweepSpec.seeds` honours the ``SeedLike`` contract of
:func:`repro.immunity.montecarlo.sweep_seed_root`: children are spawned
under the reserved ``_SWEEP_SPAWN_KEY`` from a *fresh copy* of the root
sequence (so identical calls are reproducible and never collide with
children the caller spawns), and corners that differ **only** in the axes
named by ``share_axes`` share one child — the Figure 2 "same defect
populations for every technique" guarantee, generalised to any axis.

>>> spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0), "tubes": (1, 4)})
>>> [corner.as_dict() for corner in spec.corners()]  # doctest: +NORMALIZE_WHITESPACE
[{'vdd': 0.9, 'tubes': 1}, {'vdd': 0.9, 'tubes': 4},
 {'vdd': 1.0, 'tubes': 1}, {'vdd': 1.0, 'tubes': 4}]
>>> SweepSpec.parse(["vdd=0.8:1.0:3"]).axes[0].values
(0.8, 0.9, 1.0)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StudyError
from ..immunity.montecarlo import SeedLike, sweep_seed_root


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension and its ordered values."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self):
        if not self.name:
            raise StudyError("Axis name must be non-empty")
        if not self.values:
            raise StudyError(f"Axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Corner:
    """One point of an expanded sweep: an ordered (name, value) binding."""

    index: int
    bindings: Tuple[Tuple[str, object], ...]

    def __getitem__(self, name: str) -> object:
        for key, value in self.bindings:
            if key == name:
                return value
        raise KeyError(name)

    def get(self, name: str, default: object = None) -> object:
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.bindings)

    def as_dict(self) -> Dict[str, object]:
        """The corner as a plain ``{axis: value}`` dict (axis order kept)."""
        return dict(self.bindings)

    def label(self) -> str:
        """A compact, filesystem-friendly label (``vdd=0.9,tubes=4``)."""
        return ",".join(f"{key}={value}" for key, value in self.bindings)


def _parse_scalar(token: str) -> object:
    """``"4"`` -> 4, ``"0.5"`` -> 0.5, anything else stays a string."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_axis(text: str) -> Axis:
    """Parse one ``--axis`` specification.

    Three forms are accepted:

    * ``name=start:stop:steps`` — an inclusive linear range
      (``vdd=0.8:1.0:5`` -> 0.8, 0.85, 0.9, 0.95, 1.0);
    * ``name=a,b,c`` — an explicit list (ints, floats or strings);
    * ``name=value`` — a single value.

    >>> parse_axis("cnts=2,4,8").values
    (2, 4, 8)
    >>> parse_axis("technique=compact").values
    ('compact',)
    >>> parse_axis("vdd=0.5:1.0:2").values
    (0.5, 1.0)
    """
    name, sep, spec = text.partition("=")
    name = name.strip()
    if not sep or not name or not spec.strip():
        raise StudyError(
            f"Malformed axis {text!r}; expected name=start:stop:steps, "
            "name=a,b,c or name=value"
        )
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise StudyError(
                f"Malformed range axis {text!r}; expected name=start:stop:steps"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
        except ValueError as error:
            raise StudyError(f"Malformed range axis {text!r}") from error
        if steps < 1:
            raise StudyError(f"Axis {name!r} needs >= 1 steps, got {steps}")
        if steps == 1:
            values: Tuple[object, ...] = (start,)
        else:
            values = tuple(
                start + (stop - start) * i / (steps - 1) for i in range(steps)
            )
        return Axis(name, values)
    return Axis(name, tuple(_parse_scalar(token) for token in spec.split(",")))


@dataclass(frozen=True)
class SweepSpec:
    """An ordered set of sweep axes plus the expansion mode.

    ``mode="grid"`` expands the full cartesian product (last axis fastest)
    and needs distinct values on each axis; ``mode="zip"`` walks all axes
    in lock-step (they must share a length) and may repeat values.
    """

    axes: Tuple[Axis, ...]
    mode: str = "grid"

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.mode not in ("grid", "zip"):
            raise StudyError(f"mode must be 'grid' or 'zip', got {self.mode!r}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise StudyError(f"Duplicate axis names in {names}")
        if (self.mode == "zip" and self.axes
                and len({len(axis) for axis in self.axes}) != 1):
            raise StudyError(
                "zip mode needs equal-length axes, got "
                + ", ".join(f"{a.name}[{len(a)}]" for a in self.axes)
            )
        if self.mode == "grid":
            # A repeated grid value names one corner twice: seed and case
            # lookups by value could not tell the two apart.
            for axis in self.axes:
                repeated = [value for index, value in enumerate(axis.values)
                            if value in axis.values[:index]]
                if repeated:
                    raise StudyError(
                        f"Grid axis {axis.name!r} repeats {repeated}; "
                        "use distinct values (zip mode keeps repeats)"
                    )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_mapping(cls, axes: Mapping[str, Sequence[object]],
                     mode: str = "grid") -> "SweepSpec":
        """Build a spec from ``{name: values}`` (insertion order kept)."""
        return cls(
            axes=tuple(Axis(name, tuple(values)) for name, values in axes.items()),
            mode=mode,
        )

    @classmethod
    def parse(cls, specs: Sequence[str], mode: str = "grid") -> "SweepSpec":
        """Build a spec from CLI-style ``name=...`` axis strings."""
        if not specs:
            raise StudyError("A sweep needs at least one --axis")
        return cls(axes=tuple(parse_axis(text) for text in specs), mode=mode)

    # -- introspection ---------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def axis(self, name: str) -> Axis:
        for candidate in self.axes:
            if candidate.name == name:
                return candidate
        raise StudyError(f"No axis {name!r}; axes: {list(self.axis_names)}")

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid shape (grid mode) or ``(length,)`` (zip mode)."""
        if self.mode == "zip":
            return (len(self.axes[0]),) if self.axes else (0,)
        return tuple(len(axis) for axis in self.axes)

    def __len__(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    # -- expansion -------------------------------------------------------------

    def corners(self) -> List[Corner]:
        """Expand the spec into its ordered list of :class:`Corner` points."""
        names = self.axis_names
        if self.mode == "zip":
            rows = zip(*(axis.values for axis in self.axes))
        else:
            rows = itertools.product(*(axis.values for axis in self.axes))
        return [
            Corner(index=index, bindings=tuple(zip(names, row)))
            for index, row in enumerate(rows)
        ]

    # -- seed policy -----------------------------------------------------------

    def seeds(self, seed: SeedLike,
              share_axes: Sequence[str] = ()) -> List[np.random.SeedSequence]:
        """One child :class:`~numpy.random.SeedSequence` per corner.

        Children are spawned from
        :func:`~repro.immunity.montecarlo.sweep_seed_root` — the caller's
        sequence is never mutated, identical calls return identical
        children, and the children cannot alias ones the caller spawns
        directly.  Corners
        whose bindings differ only in the axes listed in ``share_axes``
        receive the *same* child (first-occurrence order), which is how the
        Figure 2 experiment gives every layout technique the same defect
        populations.
        """
        # Sharing on an axis the spec doesn't sweep is a no-op, not an
        # error: every corner then keys on its full binding.
        share = set(share_axes) & set(self.axis_names)
        corners = self.corners()
        groups: Dict[Tuple[Tuple[str, object], ...], int] = {}
        group_of_corner: List[int] = []
        for corner in corners:
            key = tuple(
                (name, value) for name, value in corner.bindings
                if name not in share
            )
            if key not in groups:
                groups[key] = len(groups)
            group_of_corner.append(groups[key])
        children = sweep_seed_root(seed).spawn(len(groups)) if groups else []
        return [children[group] for group in group_of_corner]
