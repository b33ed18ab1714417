"""Gate-level timing and energy estimation (logical-effort style).

The full-adder case study (Section V.B) compares delay and energy of a
mapped gate-level netlist in both technologies.  Rather than flattening the
whole design to transistors, each library cell is reduced to the classic
RC abstraction: an input capacitance per pin, an effective drive resistance
and a parasitic output capacitance.  Stage delay is then
``R_drive · (C_parasitic + C_load)`` and switching energy is
``(C_parasitic + C_load) · Vdd²``; path delay sums stages along the worst
topological path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import CharacterizationError, NetlistError
from .netlist import GateNetlist, GateInstance


@dataclass(frozen=True)
class CellTimingModel:
    """Electrical abstraction of one library cell (one drive strength)."""

    cell_type: str
    drive_strength: float
    input_capacitance: float        # per input pin [F]
    drive_resistance: float         # effective pull resistance [ohm]
    parasitic_capacitance: float    # output self-loading [F]
    #: switching activity factor used for energy accounting
    activity: float = 1.0

    def stage_delay(self, load_capacitance: float) -> float:
        """Delay of this cell driving ``load_capacitance`` [s]."""
        return self.drive_resistance * (self.parasitic_capacitance + load_capacitance)

    def switching_energy(self, load_capacitance: float, vdd: float) -> float:
        """Energy of one output transition [J]."""
        return (self.parasitic_capacitance + load_capacitance) * vdd * vdd


class TimingLibrary:
    """A set of cell timing models keyed by (cell type, drive strength)."""

    def __init__(self, name: str, vdd: float = 1.0):
        self.name = name
        self.vdd = vdd
        self._models: Dict[Tuple[str, float], CellTimingModel] = {}

    def add(self, model: CellTimingModel) -> None:
        key = (model.cell_type.upper(), model.drive_strength)
        self._models[key] = model

    def lookup(self, cell_type: str, drive_strength: float = 1.0) -> CellTimingModel:
        """Find the model for a cell, falling back to the nearest available
        drive strength (scaling R and C accordingly is the caller's job)."""
        key = (cell_type.upper(), drive_strength)
        if key in self._models:
            return self._models[key]
        candidates = [k for k in self._models if k[0] == cell_type.upper()]
        if not candidates:
            raise CharacterizationError(
                f"Library {self.name!r} has no cell {cell_type!r}"
            )
        nearest = min(candidates, key=lambda k: abs(k[1] - drive_strength))
        base = self._models[nearest]
        scale = drive_strength / base.drive_strength
        return CellTimingModel(
            cell_type=base.cell_type,
            drive_strength=drive_strength,
            input_capacitance=base.input_capacitance * scale,
            drive_resistance=base.drive_resistance / scale,
            parasitic_capacitance=base.parasitic_capacitance * scale,
        )

    def cell_types(self) -> List[str]:
        return sorted({key[0] for key in self._models})


@dataclass(frozen=True)
class PathTimingResult:
    """Worst-path delay and total switching energy of a netlist."""

    critical_path_delay: float
    critical_path: Tuple[str, ...]
    total_energy_per_cycle: float
    arrival_times: Dict[str, float]


def analyse_netlist(
    netlist: GateNetlist,
    library: TimingLibrary,
    output_load: float = 0.0,
    primary_input_arrival: float = 0.0,
) -> PathTimingResult:
    """Static timing + energy analysis of a combinational gate netlist.

    Arrival times propagate in topological order; each net's load is the sum
    of the input capacitances of the gates it fans out to (plus
    ``output_load`` on primary outputs).  Energy assumes every gate switches
    once per cycle (activity 1), matching the paper's energy-per-cycle
    metric for the full adder.
    """
    netlist.validate()
    arrival: Dict[str, float] = {net: primary_input_arrival for net in netlist.inputs}
    worst_driver: Dict[str, Optional[str]] = {net: None for net in netlist.inputs}
    total_energy = 0.0

    models: Dict[str, CellTimingModel] = {}
    for gate in netlist.gates:
        models[gate.name] = library.lookup(gate.cell_type, gate.drive_strength)

    fanout = netlist.fanout()

    def net_load(net: str) -> float:
        load = sum(
            models[consumer.name].input_capacitance for consumer in fanout.get(net, ())
        )
        if net in netlist.outputs:
            load += output_load
        return load

    for gate in netlist.topological_order():
        model = models[gate.name]
        load = net_load(gate.output_net)
        delay = model.stage_delay(load)
        total_energy += model.switching_energy(load, library.vdd)
        input_arrivals = [
            (arrival.get(net, primary_input_arrival), net) for net in gate.input_nets()
        ]
        worst_arrival, worst_net = max(input_arrivals) if input_arrivals else (0.0, None)
        arrival[gate.output_net] = worst_arrival + delay
        worst_driver[gate.output_net] = gate.name

    if not netlist.outputs:
        raise NetlistError(f"Netlist {netlist.name!r} declares no outputs")
    critical_output = max(netlist.outputs, key=lambda net: arrival.get(net, 0.0))
    critical_delay = arrival.get(critical_output, 0.0)

    # Recover the critical path by walking drivers backwards.
    path: List[str] = []
    driver_map = netlist.drivers()
    net = critical_output
    while net in driver_map:
        gate = driver_map[net]
        path.append(gate.name)
        input_nets = gate.input_nets()
        if not input_nets:
            break
        net = max(input_nets, key=lambda n: arrival.get(n, 0.0))
        if arrival.get(net, 0.0) <= primary_input_arrival:
            break
    path.reverse()

    return PathTimingResult(
        critical_path_delay=critical_delay,
        critical_path=tuple(path),
        total_energy_per_cycle=total_energy,
        arrival_times=arrival,
    )
