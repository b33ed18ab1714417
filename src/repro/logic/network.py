"""Series-parallel transistor networks for static (CNFET/CMOS) gates.

An inverting gate computing ``out = NOT f(inputs)`` is realised by

* a pull-down network (PDN) of n-type devices whose topology mirrors ``f``
  (AND = series, OR = parallel) between ``out`` and ``gnd``; and
* a pull-up network (PUN) of p-type devices with the *dual* topology
  (series and parallel exchanged) between ``vdd`` and ``out``.

This module builds both, keeps the series-parallel structure (needed by the
sizing rules of Section III/IV and the symmetric-layout construction of
Figure 4), and flattens each network to an electrical multigraph of
transistors (needed by the Euler-path layout generator and by the functional
verification used in the immunity analysis).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Mapping, Optional, Tuple

from ..errors import NetworkError
from .expr import And, Const, Expr, Not, Or, Var
from .truthtable import TruthTable

VDD_NET = "vdd"
GND_NET = "gnd"
OUTPUT_NET = "out"


# ---------------------------------------------------------------------------
# Series-parallel trees
# ---------------------------------------------------------------------------

class SPNode:
    """Base class of series-parallel network tree nodes."""

    def dual(self) -> "SPNode":
        """The dual network (series and parallel exchanged)."""
        raise NotImplementedError

    def leaf_count(self) -> int:
        """Number of transistors in the (sub)network."""
        raise NotImplementedError

    def signals(self) -> FrozenSet[str]:
        """Gate signals used by the (sub)network."""
        raise NotImplementedError

    def conducts(self, assignment: Mapping[str, bool], active_high: bool) -> bool:
        """Whether the network conducts end to end.

        ``active_high`` is ``True`` for n-type devices (conduct when the
        gate signal is 1) and ``False`` for p-type devices.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class SPLeaf(SPNode):
    """A single transistor controlled by ``signal``."""

    signal: str

    def dual(self) -> "SPNode":
        return self

    def leaf_count(self) -> int:
        return 1

    def signals(self) -> FrozenSet[str]:
        return frozenset({self.signal})

    def conducts(self, assignment: Mapping[str, bool], active_high: bool) -> bool:
        try:
            value = bool(assignment[self.signal])
        except KeyError:
            raise NetworkError(f"No value provided for signal {self.signal!r}") from None
        return value if active_high else not value

    def __str__(self) -> str:
        return self.signal


@dataclass(frozen=True)
class SPSeries(SPNode):
    """Series composition of sub-networks."""

    children: Tuple[SPNode, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise NetworkError("Series composition needs at least two children")

    def dual(self) -> "SPNode":
        return SPParallel(tuple(child.dual() for child in self.children))

    def leaf_count(self) -> int:
        return sum(child.leaf_count() for child in self.children)

    def signals(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for child in self.children:
            names |= child.signals()
        return names

    def conducts(self, assignment: Mapping[str, bool], active_high: bool) -> bool:
        return all(child.conducts(assignment, active_high) for child in self.children)

    def __str__(self) -> str:
        return "(" + " - ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True)
class SPParallel(SPNode):
    """Parallel composition of sub-networks."""

    children: Tuple[SPNode, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise NetworkError("Parallel composition needs at least two children")

    def dual(self) -> "SPNode":
        return SPSeries(tuple(child.dual() for child in self.children))

    def leaf_count(self) -> int:
        return sum(child.leaf_count() for child in self.children)

    def signals(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for child in self.children:
            names |= child.signals()
        return names

    def conducts(self, assignment: Mapping[str, bool], active_high: bool) -> bool:
        return any(child.conducts(assignment, active_high) for child in self.children)

    def __str__(self) -> str:
        return "(" + " | ".join(str(child) for child in self.children) + ")"


def sp_from_expression(expr: Expr) -> SPNode:
    """Build a series-parallel tree from a negation-free AND/OR expression.

    The expression describes the *conduction condition* of the network; for
    a PDN this is the gate's pull-down function ``f`` in ``out = NOT f``.
    """
    if isinstance(expr, Var):
        return SPLeaf(expr.name)
    if isinstance(expr, And):
        return _series(tuple(sp_from_expression(op) for op in expr.operands))
    if isinstance(expr, Or):
        return _parallel(tuple(sp_from_expression(op) for op in expr.operands))
    if isinstance(expr, Not):
        raise NetworkError(
            "Series-parallel networks require a negation-free expression; "
            f"found negation of {expr.operand}"
        )
    if isinstance(expr, Const):
        raise NetworkError("Constant functions have no transistor network")
    raise NetworkError(f"Unsupported expression node {type(expr).__name__}")


def _series(children: Tuple[SPNode, ...]) -> SPNode:
    flat: List[SPNode] = []
    for child in children:
        if isinstance(child, SPSeries):
            flat.extend(child.children)
        else:
            flat.append(child)
    return flat[0] if len(flat) == 1 else SPSeries(tuple(flat))


def _parallel(children: Tuple[SPNode, ...]) -> SPNode:
    flat: List[SPNode] = []
    for child in children:
        if isinstance(child, SPParallel):
            flat.extend(child.children)
        else:
            flat.append(child)
    return flat[0] if len(flat) == 1 else SPParallel(tuple(flat))


# ---------------------------------------------------------------------------
# Flattened transistor network (electrical multigraph)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transistor:
    """One transistor edge of a network graph."""

    name: str
    gate: str
    source: str
    drain: str
    device: str            # "nfet" | "pfet"
    width: float = 1.0     # relative width (multiples of the unit width)

    def __post_init__(self):
        if self.device not in ("nfet", "pfet"):
            raise NetworkError(f"Unknown device type {self.device!r}")
        if self.width <= 0:
            raise NetworkError(f"Transistor {self.name!r} width must be positive")

    @property
    def terminals(self) -> Tuple[str, str]:
        return (self.source, self.drain)

    def conducts(self, assignment: Mapping[str, bool]) -> bool:
        """Whether the channel conducts under the given input assignment."""
        try:
            value = bool(assignment[self.gate])
        except KeyError:
            raise NetworkError(f"No value provided for signal {self.gate!r}") from None
        return value if self.device == "nfet" else not value


class TransistorNetwork:
    """A multigraph of transistors between two terminal nets.

    ``power_net`` is the rail end (``vdd`` for a PUN, ``gnd`` for a PDN) and
    ``output_net`` the cell output.  Internal nets are named ``m1, m2, ...``.
    """

    def __init__(self, device: str, power_net: str, output_net: str = OUTPUT_NET):
        if device not in ("nfet", "pfet"):
            raise NetworkError(f"Unknown device type {device!r}")
        self.device = device
        self.power_net = power_net
        self.output_net = output_net
        self.transistors: List[Transistor] = []
        self._internal_counter = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sp(
        cls,
        tree: SPNode,
        device: str,
        power_net: str,
        name_prefix: str = "M",
    ) -> "TransistorNetwork":
        """Flatten a series-parallel tree into a transistor multigraph
        between ``power_net`` and the cell output."""
        network = cls(device, power_net)
        network._expand(tree, power_net, OUTPUT_NET, name_prefix)
        return network

    def _new_internal_net(self) -> str:
        self._internal_counter += 1
        return f"m{self._internal_counter}"

    def _expand(self, node: SPNode, net_a: str, net_b: str, prefix: str) -> None:
        if isinstance(node, SPLeaf):
            index = len(self.transistors) + 1
            self.transistors.append(
                Transistor(
                    name=f"{prefix}{index}",
                    gate=node.signal,
                    source=net_a,
                    drain=net_b,
                    device=self.device,
                )
            )
            return
        if isinstance(node, SPSeries):
            nets = [net_a]
            for _ in range(len(node.children) - 1):
                nets.append(self._new_internal_net())
            nets.append(net_b)
            for child, (left, right) in zip(node.children, zip(nets[:-1], nets[1:])):
                self._expand(child, left, right, prefix)
            return
        if isinstance(node, SPParallel):
            for child in node.children:
                self._expand(child, net_a, net_b, prefix)
            return
        raise NetworkError(f"Unsupported SP node {type(node).__name__}")

    def add_transistor(self, transistor: Transistor) -> None:
        """Add an explicit transistor edge (used by custom networks)."""
        if transistor.device != self.device:
            raise NetworkError(
                f"Cannot add a {transistor.device} to a {self.device} network"
            )
        self.transistors.append(transistor)

    # -- queries --------------------------------------------------------------

    def nets(self) -> List[str]:
        """All net names, terminals first."""
        names = [self.power_net, self.output_net]
        for transistor in self.transistors:
            for net in transistor.terminals:
                if net not in names:
                    names.append(net)
        return names

    def internal_nets(self) -> List[str]:
        """Nets other than the two terminals."""
        return [n for n in self.nets() if n not in (self.power_net, self.output_net)]

    def signals(self) -> List[str]:
        """Gate signals in first-use order."""
        seen: List[str] = []
        for transistor in self.transistors:
            if transistor.gate not in seen:
                seen.append(transistor.gate)
        return seen

    def degree(self, net: str) -> int:
        """Number of transistor terminals attached to ``net``."""
        return sum(transistor.terminals.count(net) for transistor in self.transistors)

    def conducts(self, assignment: Mapping[str, bool]) -> bool:
        """Whether the network conducts between its two terminals under the
        given assignment (graph reachability over conducting edges)."""
        return self._connected(self.power_net, self.output_net, assignment)

    def _connected(self, net_a: str, net_b: str, assignment: Mapping[str, bool]) -> bool:
        frontier = [net_a]
        reached = {net_a}
        while frontier:
            net = frontier.pop()
            if net == net_b:
                return True
            for transistor in self.transistors:
                if not transistor.conducts(assignment):
                    continue
                if net in transistor.terminals:
                    other = (
                        transistor.drain
                        if transistor.source == net
                        else transistor.source
                    )
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
        return net_b in reached

    def with_widths(self, widths: Mapping[str, float]) -> "TransistorNetwork":
        """Return a copy with per-transistor widths applied (missing names
        keep their current width)."""
        copy = TransistorNetwork(self.device, self.power_net, self.output_net)
        copy._internal_counter = self._internal_counter
        for transistor in self.transistors:
            width = widths.get(transistor.name, transistor.width)
            copy.transistors.append(
                Transistor(
                    name=transistor.name,
                    gate=transistor.gate,
                    source=transistor.source,
                    drain=transistor.drain,
                    device=transistor.device,
                    width=width,
                )
            )
        return copy

    def __len__(self) -> int:
        return len(self.transistors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransistorNetwork({self.device}, {self.power_net}->{self.output_net}, "
            f"{len(self.transistors)} devices)"
        )


# ---------------------------------------------------------------------------
# A complete static gate: PDN + PUN
# ---------------------------------------------------------------------------

@dataclass
class GateNetworks:
    """The PUN/PDN pair of an inverting static gate ``out = NOT f``.

    Attributes
    ----------
    name:
        Cell name (e.g. ``"NAND3"``).
    pulldown_function:
        The negation-free expression ``f``.
    pdn_tree / pun_tree:
        Series-parallel trees of the PDN and the (dual) PUN.
    pdn / pun:
        Flattened transistor networks.
    """

    name: str
    pulldown_function: Expr
    pdn_tree: SPNode = field(init=False)
    pun_tree: SPNode = field(init=False)
    pdn: TransistorNetwork = field(init=False)
    pun: TransistorNetwork = field(init=False)

    def __post_init__(self):
        self.pdn_tree = sp_from_expression(self.pulldown_function)
        self.pun_tree = self.pdn_tree.dual()
        self.pdn = TransistorNetwork.from_sp(
            self.pdn_tree, device="nfet", power_net=GND_NET, name_prefix="MN"
        )
        self.pun = TransistorNetwork.from_sp(
            self.pun_tree, device="pfet", power_net=VDD_NET, name_prefix="MP"
        )

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Ordered input names (first-use order in the pull-down function)."""
        ordered: List[str] = []
        for signal in self.pdn.signals():
            if signal not in ordered:
                ordered.append(signal)
        return tuple(ordered)

    @property
    def transistor_count(self) -> int:
        return len(self.pdn) + len(self.pun)

    def output_value(self, assignment: Mapping[str, bool]) -> Optional[bool]:
        """Output driven by the gate under an input assignment.

        Returns ``True``/``False`` when exactly one network conducts,
        ``None`` for a conflict (both conduct) or a floating output
        (neither conducts) — a well-formed static gate never hits either.
        """
        pull_down = self.pdn.conducts(assignment)
        pull_up = self.pun.conducts(assignment)
        if pull_up and not pull_down:
            return True
        if pull_down and not pull_up:
            return False
        return None

    def truth_table(self) -> TruthTable:
        """Tabulated gate function."""
        return TruthTable.from_function(self.output_value, self.inputs)

    def is_complementary(self) -> bool:
        """Whether PUN and PDN are complementary (exactly one conducts for
        every input assignment)."""
        for bits in itertools.product((False, True), repeat=len(self.inputs)):
            assignment = dict(zip(self.inputs, bits))
            if self.pdn.conducts(assignment) == self.pun.conducts(assignment):
                return False
        return True

    def expected_truth_table(self) -> TruthTable:
        """Truth table of ``NOT f`` computed directly from the expression."""
        return TruthTable.from_function(
            lambda assignment: not self.pulldown_function.evaluate(assignment),
            self.inputs,
        )
