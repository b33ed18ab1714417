"""Design-rule checking for generated cell layouts.

The checker enforces the subset of 65 nm rules the paper leans on:

* minimum widths (gates, contacts, metal, etched regions);
* minimum spacings between shapes on the same layer;
* gate-to-contact spacing on the active region;
* **no via/contact over the gate (active) region** — the conventional
  lithography constraint that rules out the vertical gating needed by the
  etched-region layouts of [6] and motivates the paper's Euler-path layouts;
* shapes must stay inside the cell boundary.

Violations are collected as :class:`DRCViolation` records; callers decide
whether they are fatal (:class:`repro.errors.DRCViolationError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import DRCViolationError
from ..geometry.layout import LayoutCell
from ..geometry.primitives import Rect
from .lambda_rules import DesignRules


@dataclass(frozen=True)
class DRCViolation:
    """One design-rule violation."""

    rule: str
    layer: str
    message: str
    rect: Optional[Rect] = None
    other: Optional[Rect] = None

    def __str__(self) -> str:
        return f"[{self.rule}] {self.layer}: {self.message}"


class DRCChecker:
    """Run design-rule checks over a :class:`LayoutCell`.

    Parameters
    ----------
    rules:
        The λ design-rule set; all widths/spacings are interpreted in the
        same unit as the layout coordinates (λ).
    """

    #: layers whose shapes are allowed to overlap the active region
    _ACTIVE_OVERLAY_LAYERS = {"poly", "pplus", "nplus", "cnt_etch", "contact",
                              "metal1", "boundary", "pin", "nwell"}

    def __init__(self, rules: DesignRules):
        self.rules = rules

    # -- public API ------------------------------------------------------------

    def check(self, cell: LayoutCell) -> List[DRCViolation]:
        """Return all violations found in ``cell``."""
        violations: List[DRCViolation] = []
        violations.extend(self._check_min_widths(cell))
        violations.extend(self._check_spacings(cell))
        violations.extend(self._check_contact_not_on_gate(cell))
        violations.extend(self._check_boundary(cell))
        violations.extend(self._check_etch_regions(cell))
        return violations

    def assert_clean(self, cell: LayoutCell) -> None:
        """Raise :class:`DRCViolationError` when the cell has violations."""
        violations = self.check(cell)
        if violations:
            raise DRCViolationError(violations)

    # -- individual rule groups -------------------------------------------------

    def _min_width_for(self, layer: str) -> Optional[float]:
        if layer == "poly":
            return self.rules.gate_length
        if layer == "contact":
            return self.rules.contact_length
        if layer.startswith("metal"):
            return self.rules.min_metal_width
        if layer == "cnt_etch":
            return self.rules.etch_width
        if layer in ("cnt", "diffusion"):
            return self.rules.min_transistor_width
        return None

    def _check_min_widths(self, cell: LayoutCell) -> List[DRCViolation]:
        violations: List[DRCViolation] = []
        for layer in cell.layers():
            min_width = self._min_width_for(layer)
            if min_width is None:
                continue
            for rect in cell.shapes(layer):
                narrow = min(rect.width, rect.height)
                if narrow + 1e-9 < min_width:
                    violations.append(
                        DRCViolation(
                            rule="min_width",
                            layer=layer,
                            message=(
                                f"shape {rect} has width {narrow:g}λ "
                                f"< required {min_width:g}λ"
                            ),
                            rect=rect,
                        )
                    )
        return violations

    def _min_spacing_for(self, layer: str) -> Optional[float]:
        if layer == "poly":
            return self.rules.gate_gate_spacing
        if layer.startswith("metal"):
            return self.rules.min_metal_spacing
        if layer == "contact":
            return self.rules.gate_contact_spacing
        return None

    def _check_spacings(self, cell: LayoutCell) -> List[DRCViolation]:
        violations: List[DRCViolation] = []
        for layer in cell.layers():
            min_spacing = self._min_spacing_for(layer)
            if min_spacing is None:
                continue
            shapes = cell.shapes(layer)
            for index, rect in enumerate(shapes):
                for other in shapes[index + 1:]:
                    if rect.intersects(other, strict=True):
                        continue  # overlapping shapes on the same net are merged
                    gap = rect.distance_to(other)
                    if 0.0 < gap + 1e-9 < min_spacing:
                        violations.append(
                            DRCViolation(
                                rule="min_spacing",
                                layer=layer,
                                message=(
                                    f"shapes separated by {gap:g}λ "
                                    f"< required {min_spacing:g}λ"
                                ),
                                rect=rect,
                                other=other,
                            )
                        )
        return violations

    def _check_contact_not_on_gate(self, cell: LayoutCell) -> List[DRCViolation]:
        """Conventional lithography forbids a contact/via on top of the gate
        (active) region — Section III of the paper."""
        violations: List[DRCViolation] = []
        gates = cell.shapes("poly")
        if not gates:
            return violations
        for layer in ("contact",) + tuple(f"via{i}" for i in range(1, 7)):
            for rect in cell.shapes(layer):
                for gate in gates:
                    overlap = rect.intersection(gate)
                    if overlap is not None and not overlap.is_degenerate(1e-9):
                        violations.append(
                            DRCViolation(
                                rule="no_via_over_gate",
                                layer=layer,
                                message=(
                                    f"{layer} shape {rect} overlaps gate region {gate}"
                                ),
                                rect=rect,
                                other=gate,
                            )
                        )
        return violations

    def _check_boundary(self, cell: LayoutCell) -> List[DRCViolation]:
        violations: List[DRCViolation] = []
        boundary_shapes = cell.shapes("boundary")
        if not boundary_shapes:
            return violations
        boundary = boundary_shapes[0]
        for other in boundary_shapes[1:]:
            boundary = boundary.union_bbox(other)
        for layer, rect in cell.all_shapes():
            if layer in ("boundary", "pin"):
                continue
            check_box = boundary
            if layer == "poly":
                # Poly endcaps may extend over the cell edge by the usual
                # active overhang (they land in the inter-strip spacing).
                check_box = boundary.expanded(self.rules.active_contact_overhang)
            if not check_box.contains_rect(rect):
                violations.append(
                    DRCViolation(
                        rule="inside_boundary",
                        layer=layer,
                        message=f"shape {rect} extends outside boundary {boundary}",
                        rect=rect,
                    )
                )
        return violations

    def _check_etch_regions(self, cell: LayoutCell) -> List[DRCViolation]:
        """Etched regions must be at least ``etch_width`` wide *and* must not
        overlap gates or contacts (etching under a gate would remove the
        transistor channel)."""
        violations: List[DRCViolation] = []
        etches = cell.shapes("cnt_etch")
        if not etches:
            return violations
        blockers = cell.shapes("poly") + cell.shapes("contact")
        for etch in etches:
            for blocker in blockers:
                overlap = etch.intersection(blocker)
                if overlap is not None and not overlap.is_degenerate(1e-9):
                    violations.append(
                        DRCViolation(
                            rule="etch_clear_of_devices",
                            layer="cnt_etch",
                            message=f"etched region {etch} overlaps device shape {blocker}",
                            rect=etch,
                            other=blocker,
                        )
                    )
        return violations


def check_cells(cells: Iterable[LayoutCell], rules: DesignRules) -> Dict[str, List[DRCViolation]]:
    """Run DRC over several cells; returns a map of cell name to violations
    (only cells with violations appear)."""
    checker = DRCChecker(rules)
    report: Dict[str, List[DRCViolation]] = {}
    for cell in cells:
        violations = checker.check(cell)
        if violations:
            report[cell.name] = violations
    return report
