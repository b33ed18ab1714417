"""Transistor sizing for CNFET standard cells.

Two concerns from the paper:

* **Stack sizing** (Section III): devices in series must be widened so the
  worst-case pull resistance matches a single unit device — "n-CNFETs are
  three times bigger than the p-CNFETs for a NAND3 cell".  The rule
  implemented here widens every device by the number of series levels on
  its own conduction path.
* **Drive strength** (Section IV): cells are sized by loading a number of
  minimum inverters (INV1X); a ``k×`` cell multiplies every width by ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import NetworkError
from ..logic.network import (
    GateNetworks,
    SPLeaf,
    SPNode,
    SPParallel,
    SPSeries,
    TransistorNetwork,
)


def series_depth(node: SPNode) -> int:
    """Worst-case number of devices in series across the (sub)network."""
    if isinstance(node, SPLeaf):
        return 1
    if isinstance(node, SPSeries):
        return sum(series_depth(child) for child in node.children)
    if isinstance(node, SPParallel):
        return max(series_depth(child) for child in node.children)
    raise NetworkError(f"Unsupported SP node {type(node).__name__}")


def leaf_width_factors(tree: SPNode) -> List[float]:
    """Width multiplier of every leaf (in tree traversal order).

    Each leaf is widened by the number of series levels on the conduction
    path that traverses it, so every end-to-end path has the resistance of
    one unit device.
    """
    factors: List[float] = []

    def visit(node: SPNode, path_levels: int) -> None:
        if isinstance(node, SPLeaf):
            factors.append(float(path_levels))
            return
        if isinstance(node, SPSeries):
            for child in node.children:
                visit(child, path_levels)
            return
        if isinstance(node, SPParallel):
            node_depth = series_depth(node)
            for child in node.children:
                visit(child, path_levels - node_depth + series_depth(child))
            return
        raise NetworkError(f"Unsupported SP node {type(node).__name__}")

    visit(tree, series_depth(tree))
    return factors


def width_map_for_network(tree: SPNode, network: TransistorNetwork,
                          unit_width: float) -> Dict[str, float]:
    """Per-transistor widths (in λ) for a flattened network.

    The flattening in :class:`~repro.logic.network.TransistorNetwork`
    enumerates leaves in the same order as a depth-first traversal of the
    tree, so factors and transistors can be zipped positionally.
    """
    if unit_width <= 0:
        raise NetworkError("unit_width must be positive")
    factors = leaf_width_factors(tree)
    if len(factors) != len(network.transistors):
        raise NetworkError(
            f"Tree has {len(factors)} leaves but network has "
            f"{len(network.transistors)} transistors"
        )
    return {
        transistor.name: factor * unit_width
        for transistor, factor in zip(network.transistors, factors)
    }


@dataclass(frozen=True)
class CellSizing:
    """Complete sizing of a gate: per-device widths for PUN and PDN in λ."""

    gate_name: str
    unit_width: float
    drive_strength: float
    pun_widths: Dict[str, float]
    pdn_widths: Dict[str, float]

    @property
    def max_pun_width(self) -> float:
        return max(self.pun_widths.values())

    @property
    def max_pdn_width(self) -> float:
        return max(self.pdn_widths.values())

    def total_device_width(self) -> float:
        """Sum of all device widths (a proxy for active area / input load)."""
        return sum(self.pun_widths.values()) + sum(self.pdn_widths.values())


def size_gate(gate: GateNetworks, unit_width: float = 4.0,
              drive_strength: float = 1.0) -> CellSizing:
    """Size a gate's PUN and PDN.

    ``unit_width`` is the width (in λ) of the unit device — the "transistor
    size" axis of Table 1.  CNFET n- and p-devices have symmetric drive
    (Section V) so the same unit is used for both networks; the stack rule
    then widens series devices.
    """
    if drive_strength <= 0:
        raise NetworkError("drive_strength must be positive")
    scaled_unit = unit_width * drive_strength
    pun_widths = width_map_for_network(gate.pun_tree, gate.pun, scaled_unit)
    pdn_widths = width_map_for_network(gate.pdn_tree, gate.pdn, scaled_unit)
    return CellSizing(
        gate_name=gate.name,
        unit_width=unit_width,
        drive_strength=drive_strength,
        pun_widths=pun_widths,
        pdn_widths=pdn_widths,
    )
