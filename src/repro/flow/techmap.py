"""Technology mapping: bind a gate-level netlist to library cells.

Synthesis already decided the logic structure; mapping here means checking
that every instance has a matching library cell at (or near) the requested
drive strength and attaching the chosen :class:`~repro.cells.library.LibraryCell`
so placement and analysis can use its physical and electrical views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cells.library import LibraryCell, StandardCellLibrary
from ..circuit.netlist import GateInstance, GateNetlist
from ..errors import MappingError


@dataclass(frozen=True)
class MappedGate:
    """One netlist instance bound to a library cell."""

    instance: GateInstance
    cell: LibraryCell


@dataclass
class MappedDesign:
    """A gate netlist fully bound to a standard-cell library."""

    netlist: GateNetlist
    library: StandardCellLibrary
    gates: List[MappedGate] = field(default_factory=list)

    def cell_usage(self) -> Dict[str, int]:
        """How many instances of each library cell the design uses."""
        usage: Dict[str, int] = {}
        for mapped in self.gates:
            usage[mapped.cell.name] = usage.get(mapped.cell.name, 0) + 1
        return usage

    def total_cell_area(self) -> float:
        """Sum of mapped cell areas in λ²."""
        return sum(mapped.cell.area for mapped in self.gates)

    def total_cmos_reference_area(self) -> float:
        """Sum of the equivalent CMOS cell areas in λ²."""
        return sum(mapped.cell.cmos_reference.area for mapped in self.gates)


def map_netlist(
    netlist: GateNetlist,
    library: StandardCellLibrary,
    snap_drive_strengths: bool = True,
) -> MappedDesign:
    """Bind every instance of ``netlist`` to a cell of ``library``.

    With ``snap_drive_strengths`` an instance whose exact drive is missing
    is mapped to the nearest available drive of the same gate type (and the
    netlist instance keeps its requested value for reporting); without it a
    missing drive is an error.

    A netlist with no gate instances, or one using gate types the library
    cannot map at any drive, raises :class:`~repro.errors.MappingError`
    up front (all missing types listed) rather than producing a
    degenerate zero-area design.
    """
    netlist.validate()
    if not netlist.gates:
        raise MappingError(
            f"Netlist {netlist.name!r} has no gate instances to map"
        )
    missing = check_library_coverage(netlist, library)
    if missing:
        raise MappingError(
            f"Library {library.name!r} has no cell for gate type(s) "
            f"{', '.join(repr(m) for m in missing)} used by netlist "
            f"{netlist.name!r}"
        )
    design = MappedDesign(netlist=netlist, library=library)
    for instance in netlist.gates:
        gate_type = instance.cell_type
        if library.has_cell(gate_type, instance.drive_strength):
            cell = library.cell(gate_type, instance.drive_strength)
        else:
            drives = library.drive_strengths(gate_type)
            if not snap_drive_strengths:
                raise MappingError(
                    f"Library {library.name!r} has no {gate_type} cell at drive "
                    f"{instance.drive_strength:g}X (instance {instance.name!r}); "
                    f"available drives: {drives}"
                )
            nearest = min(drives, key=lambda d: abs(d - instance.drive_strength))
            cell = library.cell(gate_type, nearest)
        design.gates.append(MappedGate(instance=instance, cell=cell))
    return design


def check_library_coverage(netlist: GateNetlist,
                           library: StandardCellLibrary) -> List[str]:
    """Gate types used by the netlist that the library cannot map at all."""
    missing: List[str] = []
    for instance in netlist.gates:
        if not library.drive_strengths(instance.cell_type):
            if instance.cell_type not in missing:
                missing.append(instance.cell_type)
    return missing
