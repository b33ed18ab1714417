"""Scalable (λ-convention) design rules for the 65 nm CMOS / CNFET platforms.

Section III of the paper expresses its layout rules in the λ convention
(Figure 3): ``Lg`` (gate length), ``Ls``/``Ld`` (source/drain contact
lengths), ``Lgs``/``Lgd`` (gate-to-contact spacings), a 2 λ minimum etched
region and a ~3 λ via size.  Section V adds the separations that drive the
area comparison against CMOS: the CNFET PUN-PDN separation is limited by the
input-pin size (6 λ) whereas CMOS needs 10 λ between n- and p-diffusion.

The exact numeric values of the contact/spacing rules are not tabulated in
the paper; the defaults below are chosen to (a) respect the explicitly stated
rules, and (b) reproduce Table 1 / Figure 3 as closely as possible.  Each
default records which paper statement pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from ..errors import DesignRuleError

#: λ at the 65 nm node (half the drawn feature size), in nanometres.
LAMBDA_NM_65 = 32.5


@dataclass(frozen=True)
class DesignRules:
    """A scalable design-rule set, all lengths in λ.

    Attributes
    ----------
    name:
        Identifier of the rule set (``"cnfet65"`` or ``"cmos65"``).
    lambda_nm:
        Physical size of one λ in nanometres.
    gate_length:
        ``Lg``: drawn gate length (paper: 2 λ at the 65 nm node).
    contact_length:
        ``Ls``/``Ld``: extent of a source/drain metal contact along the
        CNT (current-flow) direction.
    gate_contact_spacing:
        ``Lgs``/``Lgd``: spacing between a gate edge and the adjacent
        contact edge.
    gate_gate_spacing:
        Spacing between two series gates sharing a diffusion/CNT region
        with no contact in between.
    etch_width:
        Minimum width of an etched (CNT-removed) region — the paper states
        the lithography limit of 2 λ.
    via_size:
        Size of a via (paper: ~3 λ, larger than the 2 λ gate).
    pun_pdn_separation:
        Spacing between the pull-up and pull-down active regions inside a
        cell.  CNFET: limited by the input pin size, 6 λ; CMOS: n-to-p
        diffusion spacing, 10 λ (Section V, case study 1).
    active_contact_overhang:
        Extension of the active region beyond the outermost contacts in the
        transistor-width direction (models the contact landing area).
    min_metal_width / min_metal_spacing:
        Metal-1 routing rules used by the intra-cell router and DRC.
    cell_margin:
        Margin between any shape and the cell abutment boundary.
    rail_width:
        Width of the Vdd / Gnd power rails of a standard cell.
    pin_size:
        Side of a square input/output pin landing pad (drives the CNFET
        PUN-PDN separation per the paper).
    min_transistor_width:
        Smallest allowed transistor width.
    """

    name: str = "cnfet65"
    lambda_nm: float = LAMBDA_NM_65
    gate_length: float = 2.0
    contact_length: float = 3.0
    gate_contact_spacing: float = 1.0
    gate_gate_spacing: float = 2.0
    etch_width: float = 2.0
    via_size: float = 3.0
    pun_pdn_separation: float = 6.0
    active_contact_overhang: float = 1.0
    min_metal_width: float = 3.0
    min_metal_spacing: float = 3.0
    cell_margin: float = 2.0
    rail_width: float = 4.0
    pin_size: float = 6.0
    min_transistor_width: float = 3.0

    def __post_init__(self):
        for rule_field in fields(self):
            value = getattr(self, rule_field.name)
            if rule_field.name in ("name",):
                continue
            if not isinstance(value, (int, float)):
                raise DesignRuleError(
                    f"Rule {rule_field.name!r} must be numeric, got {type(value).__name__}"
                )
            if value <= 0:
                raise DesignRuleError(
                    f"Rule {rule_field.name!r} must be positive, got {value!r}"
                )
        if self.via_size < self.gate_length:
            raise DesignRuleError(
                "via_size must be at least the gate length "
                f"({self.via_size} < {self.gate_length})"
            )

    # -- conversions -------------------------------------------------------

    def to_nm(self, value_lambda: float) -> float:
        """Convert a length in λ to nanometres."""
        return value_lambda * self.lambda_nm

    def to_um(self, value_lambda: float) -> float:
        """Convert a length in λ to micrometres."""
        return self.to_nm(value_lambda) / 1000.0

    def area_to_um2(self, area_lambda2: float) -> float:
        """Convert an area in λ² to µm²."""
        return area_lambda2 * (self.lambda_nm / 1000.0) ** 2

    # -- derived quantities used by layout generators ----------------------

    def series_stack_length(self, num_gates: int, shared_contacts: bool = True) -> float:
        """Length of ``num_gates`` series transistors in one active column.

        With ``shared_contacts`` (diffusion sharing, no intermediate
        contacts) the gates are separated by ``gate_gate_spacing`` and the
        stack is terminated by one contact on each side.
        """
        if num_gates < 1:
            raise DesignRuleError(f"num_gates must be >= 1, got {num_gates}")
        if shared_contacts:
            inner = (num_gates - 1) * self.gate_gate_spacing
            return (
                2.0 * self.contact_length
                + 2.0 * self.gate_contact_spacing
                + num_gates * self.gate_length
                + inner
            )
        return self.linear_chain_length(num_contacts=num_gates + 1, num_gates=num_gates)

    def linear_chain_length(self, num_contacts: int, num_gates: int) -> float:
        """Length of an alternating contact/gate/contact/... chain.

        Used for Euler-path linearised layouts where every gate is bounded
        by explicit metal contacts on both sides.
        """
        if num_contacts != num_gates + 1:
            raise DesignRuleError(
                "A linear chain must have exactly one more contact than gates "
                f"(got {num_contacts} contacts, {num_gates} gates)"
            )
        return (
            num_contacts * self.contact_length
            + num_gates * self.gate_length
            + 2.0 * num_gates * self.gate_contact_spacing
        )

    def scaled(self, lambda_nm: float) -> "DesignRules":
        """Return a copy of the rule set with a different λ (rules stay in λ)."""
        return replace(self, lambda_nm=lambda_nm)

    def as_dict(self) -> Dict[str, float]:
        """Rule values as a plain dictionary (name excluded)."""
        result = {}
        for rule_field in fields(self):
            if rule_field.name == "name":
                continue
            result[rule_field.name] = getattr(self, rule_field.name)
        return result


@dataclass(frozen=True)
class CMOSDesignRules(DesignRules):
    """Design rules of the reference 65 nm CMOS platform.

    Identical front-end rules, but the n-to-p diffusion spacing inside a
    cell is 10 λ (Section V) and the well rules make the PUN/PDN heights
    standardised per row.
    """

    name: str = "cmos65"
    pun_pdn_separation: float = 10.0


#: Default CNFET rule set used throughout the library.
CNFET_RULES = DesignRules()

#: Default CMOS 65 nm rule set used for the reference comparison.
CMOS_RULES = CMOSDesignRules()


def rules_by_name(name: str) -> DesignRules:
    """Return the canonical rule set for ``name`` (``cnfet65`` / ``cmos65``)."""
    canonical = {"cnfet65": CNFET_RULES, "cmos65": CMOS_RULES}
    try:
        return canonical[name]
    except KeyError:
        raise DesignRuleError(
            f"Unknown rule set {name!r}; available: {sorted(canonical)}"
        ) from None
