"""Minimal Liberty (.lib) export of a characterised cell library.

The conventional logic-to-GDSII flow the paper plugs into consumes Liberty
timing views.  This writer emits the subset downstream tools (and our own
parser-free tests) need: library-level units, and per-cell area, pin
directions, pin capacitances and a single linear delay model expressed as
``intrinsic + resistance × load``.

The delay numbers carry whatever timing view the library was built with:
the logical-effort RC abstraction, or — for
``build_library(timing_source="measured")`` — delays fitted to waveforms
from the batch transient engine.  The export records the origin in a
``/* timing_source : ... */`` comment so downstream consumers can tell
the two apart.
"""

from __future__ import annotations

from typing import List

from ..errors import LibraryError
from .library import StandardCellLibrary


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_liberty(library: StandardCellLibrary) -> str:
    """Render the library as Liberty text and return it."""
    if len(library) == 0:
        raise LibraryError(f"Library {library.name!r} has no cells to export")
    lambda_um = library.rules.lambda_nm / 1000.0
    area_scale = lambda_um * lambda_um

    lines: List[str] = []
    lines.append(f"library ({library.name}) {{")
    lines.append("  delay_model : table_lookup;")
    lines.append("  time_unit : \"1ps\";")
    lines.append("  voltage_unit : \"1V\";")
    lines.append("  current_unit : \"1uA\";")
    lines.append("  capacitive_load_unit (1, ff);")
    lines.append(f"  nom_voltage : {_fmt(library.technology.vdd)};")
    lines.append(f"  /* timing_source : {library.timing_source} */")
    lines.append("")

    for cell in sorted(library.cells(), key=lambda c: c.name):
        timing = cell.timing
        area_um2 = cell.area * area_scale
        lines.append(f"  cell ({cell.name}) {{")
        lines.append(f"    area : {_fmt(area_um2)};")
        for pin_name in cell.gate.inputs:
            lines.append(f"    pin ({pin_name}) {{")
            lines.append("      direction : input;")
            lines.append(
                f"      capacitance : {_fmt(timing.input_capacitance * 1e15)};"
            )
            lines.append("    }")
        lines.append("    pin (out) {")
        lines.append("      direction : output;")
        lines.append(f"      function : \"{_liberty_function(cell)}\";")
        lines.append("      timing () {")
        lines.append(f"        related_pin : \"{' '.join(cell.gate.inputs)}\";")
        intrinsic_ps = timing.drive_resistance * timing.parasitic_capacitance * 1e12
        slope_ps_per_ff = timing.drive_resistance * 1e12 * 1e-15
        lines.append(f"        intrinsic_rise : {_fmt(intrinsic_ps)};")
        lines.append(f"        intrinsic_fall : {_fmt(intrinsic_ps)};")
        lines.append(f"        rise_resistance : {_fmt(slope_ps_per_ff)};")
        lines.append(f"        fall_resistance : {_fmt(slope_ps_per_ff)};")
        lines.append("      }")
        lines.append("    }")
        lines.append("  }")
        lines.append("")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _liberty_function(cell) -> str:
    """Liberty boolean function string of an inverting gate: ``!(f)``."""
    expression = str(cell.gate.pulldown_function)
    expression = expression.replace("*", " & ").replace("+", " | ")
    return f"!({expression})"


def save_liberty(library: StandardCellLibrary, path: str) -> str:
    """Write the Liberty file to ``path`` and return the path."""
    text = write_liberty(library)
    with open(path, "w", encoding="ascii") as stream:
        stream.write(text)
    return path
