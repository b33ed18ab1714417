"""Standard gate functions used by the paper's cell library.

Every factory returns a :class:`~repro.logic.network.GateNetworks` whose
pull-down function matches the conventional static-CMOS/CNFET definition of
the cell.  The set covers all cells of Table 1, the AOI31 example of
Figure 4 and the NAND2+INV full adder of Figure 8.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import LogicError
from .expr import and_, or_, parse_expression, var
from .network import GateNetworks

_DEFAULT_INPUT_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H")


def _input_names(count: int) -> Tuple[str, ...]:
    if count > len(_DEFAULT_INPUT_NAMES):
        raise LogicError(
            f"At most {len(_DEFAULT_INPUT_NAMES)} inputs are supported, "
            f"got {count}"
        )
    return _DEFAULT_INPUT_NAMES[:count]


def inverter() -> GateNetworks:
    """INV: out = A'."""
    return GateNetworks("INV", var("A"))


def nand(fanin: int) -> GateNetworks:
    """NAND-n: out = (A·B·...)'  — PDN is a series stack, PUN is parallel."""
    if fanin < 2:
        raise LogicError("NAND requires fan-in >= 2 (use inverter() for fan-in 1)")
    inputs = _input_names(fanin)
    return GateNetworks(f"NAND{fanin}", and_(*[var(n) for n in inputs]))


def nor(fanin: int) -> GateNetworks:
    """NOR-n: out = (A+B+...)' — PDN is parallel, PUN is a series stack."""
    if fanin < 2:
        raise LogicError("NOR requires fan-in >= 2 (use inverter() for fan-in 1)")
    inputs = _input_names(fanin)
    return GateNetworks(f"NOR{fanin}", or_(*[var(n) for n in inputs]))


def aoi21() -> GateNetworks:
    """AOI21: out = (A·B + C)'."""
    return GateNetworks("AOI21", or_(and_(var("A"), var("B")), var("C")))


def aoi22() -> GateNetworks:
    """AOI22: out = (A·B + C·D)'."""
    return GateNetworks("AOI22", or_(and_(var("A"), var("B")), and_(var("C"), var("D"))))


def aoi31() -> GateNetworks:
    """AOI31: out = (A·B·C + D)' — the generalised example of Figure 4."""
    return GateNetworks("AOI31", or_(and_(var("A"), var("B"), var("C")), var("D")))


def oai21() -> GateNetworks:
    """OAI21: out = ((A+B)·C)'."""
    return GateNetworks("OAI21", and_(or_(var("A"), var("B")), var("C")))


def oai22() -> GateNetworks:
    """OAI22: out = ((A+B)·(C+D))'."""
    return GateNetworks("OAI22", and_(or_(var("A"), var("B")), or_(var("C"), var("D"))))


def from_pulldown(name: str, expression: str) -> GateNetworks:
    """Build a gate from a textual pull-down expression, e.g.
    ``from_pulldown("AOI211", "A*B + C + D")``."""
    return GateNetworks(name, parse_expression(expression))


#: Factories of the canonical cell set used across the library.
STANDARD_GATES = {
    "INV": inverter,
    "NAND2": lambda: nand(2),
    "NAND3": lambda: nand(3),
    "NAND4": lambda: nand(4),
    "NOR2": lambda: nor(2),
    "NOR3": lambda: nor(3),
    "NOR4": lambda: nor(4),
    "AOI21": aoi21,
    "AOI22": aoi22,
    "AOI31": aoi31,
    "OAI21": oai21,
    "OAI22": oai22,
}


def standard_gate(name: str) -> GateNetworks:
    """Instantiate one of the canonical gates by name."""
    try:
        factory = STANDARD_GATES[name.upper()]
    except KeyError:
        raise LogicError(
            f"Unknown standard gate {name!r}; available: {sorted(STANDARD_GATES)}"
        ) from None
    return factory()


def all_standard_gates() -> Dict[str, GateNetworks]:
    """All canonical gates, keyed by name."""
    return {name: factory() for name, factory in STANDARD_GATES.items()}
