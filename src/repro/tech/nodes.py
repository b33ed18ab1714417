"""Technology-node descriptions for the CNFET and reference CMOS platforms.

A :class:`TechnologyNode` bundles the electrical environment (supply, gate
stack, dielectric), the λ design rules and the layer stack into one object
that the device models, layout generators and the design-kit flow all share.

The paper's CNFET platform deliberately re-uses the 65 nm CMOS back-end and
assumes polysilicon gates with a low-k dielectric so the comparison against
the industrial 65 nm library is apples-to-apples (Section IV); the defaults
below encode exactly that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import TechnologyError
from ..units import EPSILON_0
from .lambda_rules import CMOS_RULES, CNFET_RULES, DesignRules
from .layers import LayerStack, cmos_layer_stack, cnfet_layer_stack


@dataclass(frozen=True)
class GateStack:
    """Gate electrode + dielectric description.

    Attributes
    ----------
    material:
        Gate electrode material (``"polysilicon"`` or ``"metal"``).
    dielectric:
        Gate dielectric name (``"SiO2"``, ``"low-k"``, ``"HfO2"`` ...).
    relative_permittivity:
        Dielectric constant of the gate insulator.
    thickness_nm:
        Physical dielectric thickness in nanometres.
    """

    material: str = "polysilicon"
    dielectric: str = "low-k"
    relative_permittivity: float = 3.9
    thickness_nm: float = 4.0

    def __post_init__(self):
        if self.relative_permittivity <= 0:
            raise TechnologyError("relative_permittivity must be positive")
        if self.thickness_nm <= 0:
            raise TechnologyError("thickness_nm must be positive")

    @property
    def capacitance_per_area(self) -> float:
        """Parallel-plate oxide capacitance per unit area [F/m²]."""
        return EPSILON_0 * self.relative_permittivity / (self.thickness_nm * 1e-9)


@dataclass(frozen=True)
class TechnologyNode:
    """A complete technology-node description.

    Attributes
    ----------
    name:
        Node identifier.
    feature_size_nm:
        Drawn feature size (65 nm for both platforms in the paper).
    supply_voltage:
        Nominal Vdd (the paper simulates both platforms at 1 V).
    gate_stack:
        :class:`GateStack` of the node.
    rules:
        λ design rules (:class:`~repro.tech.lambda_rules.DesignRules`).
    is_cnfet:
        Whether the active devices are CNFETs (else bulk MOSFETs).
    oxide_under_cnt_um:
        Thickness of the SiO2 under the CNT plane (paper: 10 µm), only
        meaningful when ``is_cnfet``.
    temperature_k:
        Operating temperature for device models.
    """

    name: str
    feature_size_nm: float
    supply_voltage: float
    gate_stack: GateStack
    rules: DesignRules
    is_cnfet: bool
    oxide_under_cnt_um: Optional[float] = None
    temperature_k: float = 300.0

    def __post_init__(self):
        if self.feature_size_nm <= 0:
            raise TechnologyError("feature_size_nm must be positive")
        if self.supply_voltage <= 0:
            raise TechnologyError("supply_voltage must be positive")
        if self.is_cnfet and self.oxide_under_cnt_um is None:
            raise TechnologyError("CNFET nodes must define oxide_under_cnt_um")

    @property
    def lambda_nm(self) -> float:
        """λ of the node in nanometres."""
        return self.rules.lambda_nm

    def layer_stack(self) -> LayerStack:
        """Layer stack matching the node type."""
        return cnfet_layer_stack() if self.is_cnfet else cmos_layer_stack()

    def with_supply(self, supply_voltage: float) -> "TechnologyNode":
        """Copy of the node at a different supply voltage."""
        return replace(self, supply_voltage=supply_voltage)


def cnfet65_node() -> TechnologyNode:
    """The paper's CNFET platform: 65 nm rules, poly gate, low-k dielectric,
    CNT plane over 10 µm SiO2."""
    return TechnologyNode(
        name="cnfet65",
        feature_size_nm=65.0,
        supply_voltage=1.0,
        gate_stack=GateStack(
            material="polysilicon",
            dielectric="low-k",
            relative_permittivity=3.9,
            thickness_nm=4.0,
        ),
        rules=CNFET_RULES,
        is_cnfet=True,
        oxide_under_cnt_um=10.0,
    )


def cmos65_node() -> TechnologyNode:
    """The reference industrial-style 65 nm CMOS node."""
    return TechnologyNode(
        name="cmos65",
        feature_size_nm=65.0,
        supply_voltage=1.0,
        gate_stack=GateStack(
            material="polysilicon",
            dielectric="SiON",
            relative_permittivity=5.0,
            thickness_nm=1.8,
        ),
        rules=CMOS_RULES,
        is_cnfet=False,
        oxide_under_cnt_um=None,
    )
