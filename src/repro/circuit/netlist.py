"""Transistor-level and gate-level netlist structures.

The design-kit flow of Section IV moves between three representations:

* a **gate-level netlist** (the output of logic synthesis / the input of
  technology mapping and placement),
* a **transistor-level netlist** (what the SPICE writer and the transient
  simulator consume), and
* the physical layout (handled by :mod:`repro.core` / :mod:`repro.flow`).

Both netlist flavours live here.  They are deliberately simple containers
with validation — the interesting behaviour is in the tools that use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..devices.cnfet import CNFET
from ..devices.mosfet import MOSFET
from ..errors import NetlistError

VDD = "vdd"
GND = "gnd"


# ---------------------------------------------------------------------------
# Transistor level
# ---------------------------------------------------------------------------

@dataclass
class TransistorInstance:
    """One FET instance in a transistor-level netlist."""

    name: str
    device: object            # CNFET or MOSFET (duck-typed electrically)
    gate: str
    drain: str
    source: str

    def __post_init__(self):
        if not isinstance(self.device, (CNFET, MOSFET)):
            raise NetlistError(
                f"Transistor {self.name!r} device must be a CNFET or MOSFET, "
                f"got {type(self.device).__name__}"
            )

    @property
    def polarity(self) -> str:
        return self.device.polarity


@dataclass
class CapacitorInstance:
    """A lumped capacitor to ground (wiring load, extracted parasitic)."""

    name: str
    node: str
    capacitance: float

    def __post_init__(self):
        if self.capacitance < 0:
            raise NetlistError(f"Capacitor {self.name!r} must be non-negative")


class TransistorNetlist:
    """A flat transistor-level netlist with Vdd/Gnd rails."""

    def __init__(self, name: str, vdd: float = 1.0):
        if vdd <= 0:
            raise NetlistError("vdd must be positive")
        self.name = name
        self.vdd = vdd
        self.transistors: List[TransistorInstance] = []
        self.capacitors: List[CapacitorInstance] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []

    def add_transistor(self, name: str, device, gate: str, drain: str,
                       source: str) -> TransistorInstance:
        """Add a FET; names must be unique."""
        if any(t.name == name for t in self.transistors):
            raise NetlistError(f"Duplicate transistor name {name!r}")
        instance = TransistorInstance(name, device, gate, drain, source)
        self.transistors.append(instance)
        return instance

    def add_capacitor(self, name: str, node: str, capacitance: float) -> CapacitorInstance:
        """Add a lumped capacitance from ``node`` to ground."""
        instance = CapacitorInstance(name, node, capacitance)
        self.capacitors.append(instance)
        return instance

    def declare_io(self, inputs: Sequence[str], outputs: Sequence[str]) -> None:
        """Declare primary inputs/outputs (used by the simulator and the
        SPICE writer)."""
        self.inputs = list(inputs)
        self.outputs = list(outputs)

    def nets(self) -> List[str]:
        """Every net name referenced by the netlist."""
        names: List[str] = [VDD, GND]
        for transistor in self.transistors:
            for net in (transistor.gate, transistor.drain, transistor.source):
                if net not in names:
                    names.append(net)
        for capacitor in self.capacitors:
            if capacitor.node not in names:
                names.append(capacitor.node)
        return names

    def internal_nets(self) -> List[str]:
        """Nets that are neither rails nor primary inputs."""
        excluded = {VDD, GND, *self.inputs}
        return [net for net in self.nets() if net not in excluded]

    def total_gate_capacitance(self, net: str) -> float:
        """Gate capacitance presented by all FETs whose gate is ``net``."""
        return sum(
            t.device.gate_capacitance() for t in self.transistors if t.gate == net
        )

    def total_drain_capacitance(self, net: str) -> float:
        """Drain/source parasitics attached to ``net``."""
        total = 0.0
        for transistor in self.transistors:
            if transistor.drain == net or transistor.source == net:
                total += transistor.device.drain_capacitance()
        return total

    def node_capacitance(self, net: str) -> float:
        """Total lumped capacitance of a net (device loading + explicit caps)."""
        explicit = sum(c.capacitance for c in self.capacitors if c.node == net)
        return explicit + self.total_gate_capacitance(net) + self.total_drain_capacitance(net)

    def __len__(self) -> int:
        return len(self.transistors)


# ---------------------------------------------------------------------------
# Gate level
# ---------------------------------------------------------------------------

@dataclass
class GateInstance:
    """One logic-gate instance of a gate-level netlist."""

    name: str
    cell_type: str                   # e.g. "NAND2", "INV"
    connections: Dict[str, str]      # pin name -> net name
    drive_strength: float = 1.0

    def __post_init__(self):
        if "out" not in {pin.lower() for pin in self.connections}:
            raise NetlistError(f"Gate {self.name!r} has no 'out' connection")
        if self.drive_strength <= 0:
            raise NetlistError(f"Gate {self.name!r} drive strength must be positive")

    @property
    def output_net(self) -> str:
        for pin, net in self.connections.items():
            if pin.lower() == "out":
                return net
        raise NetlistError(f"Gate {self.name!r} has no output")  # pragma: no cover

    def input_nets(self) -> List[str]:
        return [net for pin, net in self.connections.items() if pin.lower() != "out"]


class GateNetlist:
    """A gate-level (structural) netlist."""

    def __init__(self, name: str):
        self.name = name
        self.gates: List[GateInstance] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []

    def add_gate(self, name: str, cell_type: str, connections: Mapping[str, str],
                 drive_strength: float = 1.0) -> GateInstance:
        """Add a gate instance; instance names must be unique."""
        if any(g.name == name for g in self.gates):
            raise NetlistError(f"Duplicate gate instance {name!r}")
        instance = GateInstance(name, cell_type.upper(), dict(connections), drive_strength)
        self.gates.append(instance)
        return instance

    def declare_io(self, inputs: Sequence[str], outputs: Sequence[str]) -> None:
        self.inputs = list(inputs)
        self.outputs = list(outputs)

    def nets(self) -> List[str]:
        names: List[str] = []
        for gate in self.gates:
            for net in gate.connections.values():
                if net not in names:
                    names.append(net)
        return names

    def drivers(self) -> Dict[str, GateInstance]:
        """Map from net to the gate that drives it."""
        driver_map: Dict[str, GateInstance] = {}
        for gate in self.gates:
            net = gate.output_net
            if net in driver_map:
                raise NetlistError(
                    f"Net {net!r} is driven by both {driver_map[net].name!r} "
                    f"and {gate.name!r}"
                )
            driver_map[net] = gate
        return driver_map

    def loads(self, net: str) -> List[GateInstance]:
        """Gates whose inputs are connected to ``net``."""
        return [gate for gate in self.gates if net in gate.input_nets()]

    def fanout(self) -> Dict[str, List[GateInstance]]:
        """:meth:`loads` of every net that has one, in one pass: each
        net's consumers in gate order, a gate that takes the net on two
        pins once."""
        consumers: Dict[str, List[GateInstance]] = {}
        for gate in self.gates:
            for net in dict.fromkeys(gate.input_nets()):
                consumers.setdefault(net, []).append(gate)
        return consumers

    def validate(self) -> None:
        """Check structural sanity: every internal net has a driver, every
        output is driven, inputs are not driven."""
        driver_map = self.drivers()
        for output in self.outputs:
            if output not in driver_map:
                raise NetlistError(f"Primary output {output!r} has no driver")
        for net in self.nets():
            if net in self.inputs:
                if net in driver_map:
                    raise NetlistError(f"Primary input {net!r} is driven by a gate")
                continue
            if net not in driver_map and net not in (VDD, GND):
                raise NetlistError(f"Net {net!r} has no driver")

    def topological_order(self) -> List[GateInstance]:
        """Gates ordered so every gate appears after the drivers of its
        inputs (combinational netlists only)."""
        driver_map = self.drivers()
        ordered: List[GateInstance] = []
        state: Dict[str, int] = {}

        def visit(gate: GateInstance) -> None:
            status = state.get(gate.name, 0)
            if status == 1:
                raise NetlistError(
                    f"Combinational loop detected through gate {gate.name!r}"
                )
            if status == 2:
                return
            state[gate.name] = 1
            for net in gate.input_nets():
                upstream = driver_map.get(net)
                if upstream is not None:
                    visit(upstream)
            state[gate.name] = 2
            ordered.append(gate)

        for gate in self.gates:
            visit(gate)
        return ordered

    def __len__(self) -> int:
        return len(self.gates)
