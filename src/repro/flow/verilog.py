"""Structural netlist input: a small Verilog subset parser and benchmark
netlist builders.

The design kit's front end (Figure 5) receives a synthesised gate-level
netlist.  Two entry points are offered:

* :func:`parse_structural_verilog` — a parser for the structural Verilog
  subset synthesis tools emit: one module, ``input``/``output``/``wire``
  declarations and named-port gate instantiations of library cells
  (``NAND2_2X g1 (.A(a), .B(b), .out(n1));``).  Drive strength is taken
  from the ``_<n>X`` suffix of the cell name.  Parse errors — unknown
  cell types, duplicate instance names, undeclared nets, positional
  ports — are :class:`~repro.errors.VerilogParseError` values carrying
  the 1-based line/column of the offending token in the original text.
* builders for the circuit families the studies consume: the NAND2 +
  inverter full adder of Figure 8, a ripple-carry adder chained from it,
  an equality comparator, and a multiply-accumulate slice.
"""

from __future__ import annotations

import re
from typing import Collection, Dict, List, Optional, Tuple

from ..circuit.netlist import GateNetlist
from ..errors import FlowError, VerilogParseError

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_MODULE_RE = re.compile(rf"module\s+({_IDENT})\s*\((.*?)\)\s*;", re.S)
_DECL_RE = re.compile(rf"(input|output|wire)\s+(.*?);", re.S)
_INSTANCE_RE = re.compile(
    rf"({_IDENT})\s+({_IDENT})\s*\((.*?)\)\s*;", re.S
)
_PORT_RE = re.compile(rf"\.({_IDENT})\s*\(\s*({_IDENT})\s*\)")
_DRIVE_RE = re.compile(r"^(?P<base>.+?)_(?P<drive>\d+(?:\.\d+)?)X$", re.IGNORECASE)

_KEYWORDS = {"module", "endmodule", "input", "output", "wire"}


def split_cell_name(cell_name: str) -> Tuple[str, float]:
    """Split ``NAND2_4X`` into ``("NAND2", 4.0)``; plain names get drive 1."""
    match = _DRIVE_RE.match(cell_name)
    if match:
        return match.group("base").upper(), float(match.group("drive"))
    return cell_name.upper(), 1.0


def _location(text: str, index: int) -> Tuple[int, int]:
    """1-based ``(line, column)`` of character ``index`` in ``text``."""
    line = text.count("\n", 0, index) + 1
    column = index - (text.rfind("\n", 0, index) + 1) + 1
    return line, column


def _parse_error(message: str, text: str, index: int) -> VerilogParseError:
    line, column = _location(text, index)
    return VerilogParseError(message, line=line, column=column)


def _default_known_cells() -> Collection[str]:
    # Imported lazily: the parser itself has no reason to pull the full
    # cell-generation stack in until a module is actually parsed.
    from ..cells.library import DEFAULT_GATE_SET

    return DEFAULT_GATE_SET


def parse_structural_verilog(
    text: str,
    known_cells: Optional[Collection[str]] = None,
) -> GateNetlist:
    """Parse one structural Verilog module into a :class:`GateNetlist`.

    ``known_cells`` is the catalogue of legal base cell types (drive
    suffixes stripped); instances of anything else raise
    :class:`~repro.errors.VerilogParseError` with the cell's line/column.
    It defaults to the standard library's gate set
    (:data:`~repro.cells.library.DEFAULT_GATE_SET`); pass a custom
    collection to parse against another library, or ``False`` to skip
    the check entirely.

    Duplicate instance names and instance ports referencing nets that no
    ``input``/``output``/``wire`` declaration introduced are rejected
    the same way — located errors, not opaque ones.
    """
    stripped = _strip_comments(text)
    module_match = _MODULE_RE.search(stripped)
    if not module_match:
        raise FlowError("No module declaration found in the Verilog source")
    module_name = module_match.group(1)
    netlist = GateNetlist(module_name)
    if known_cells is None:
        known_cells = _default_known_cells()
    legal_cells = ({cell.upper() for cell in known_cells}
                   if known_cells is not False else None)

    offset = module_match.end()
    end_index = stripped.find("endmodule", offset)
    if end_index < 0:
        raise FlowError(f"Module {module_name!r} has no endmodule")
    body = stripped[offset:end_index]

    inputs: List[str] = []
    outputs: List[str] = []
    declared: set = set()
    for kind, names in _DECL_RE.findall(body):
        signals = [name.strip() for name in names.replace("\n", " ").split(",") if name.strip()]
        declared.update(signals)
        if kind == "input":
            inputs.extend(signals)
        elif kind == "output":
            outputs.extend(signals)

    declaration_spans = [m.span() for m in _DECL_RE.finditer(body)]
    seen_instances: Dict[str, int] = {}

    for match in _INSTANCE_RE.finditer(body):
        if any(start <= match.start() < end for start, end in declaration_spans):
            continue
        cell_name, instance_name, ports = match.group(1), match.group(2), match.group(3)
        if cell_name in _KEYWORDS:
            continue
        at = offset + match.start()
        base, drive = split_cell_name(cell_name)
        if legal_cells is not None and base not in legal_cells:
            raise _parse_error(
                f"Unknown cell type {cell_name!r} (no library cell {base!r}; "
                f"known: {sorted(legal_cells)})",
                text, at,
            )
        if instance_name in seen_instances:
            first_line, _ = _location(text, seen_instances[instance_name])
            raise _parse_error(
                f"Duplicate instance name {instance_name!r} "
                f"(first declared on line {first_line})",
                text, at,
            )
        seen_instances[instance_name] = at
        connections = {pin: net for pin, net in _PORT_RE.findall(ports)}
        if not connections:
            raise _parse_error(
                f"Instance {instance_name!r} of {cell_name!r} uses positional "
                "ports; only named ports (.pin(net)) are supported",
                text, at,
            )
        for pin, net in connections.items():
            if net not in declared:
                port_match = re.search(
                    rf"\.{re.escape(pin)}\s*\(\s*{re.escape(net)}\s*\)", ports
                )
                net_at = at if port_match is None else (
                    offset + match.start(3) + port_match.start()
                )
                raise _parse_error(
                    f"Instance {instance_name!r} port .{pin}({net}) references "
                    f"undeclared net {net!r} (declare it as input, output "
                    "or wire)",
                    text, net_at,
                )
        netlist.add_gate(instance_name, base, connections, drive_strength=drive)

    netlist.declare_io(inputs, outputs)
    netlist.validate()
    return netlist


def _strip_comments(text: str) -> str:
    """Blank comments out with spaces so every surviving token keeps its
    original offset (parse errors report line/column into ``text``)."""

    def blank(match: "re.Match[str]") -> str:
        return "".join(c if c == "\n" else " " for c in match.group(0))

    text = re.sub(r"//.*", blank, text)
    return re.sub(r"/\*.*?\*/", blank, text, flags=re.S)


# ---------------------------------------------------------------------------
# Benchmark netlist builders
# ---------------------------------------------------------------------------

def full_adder_netlist(buffer_outputs: bool = True,
                       suffix: str = "") -> GateNetlist:
    """The NAND2 + inverter full adder of Figure 8(a).

    Nine NAND2 gates (``2X`` inside, ``4X`` at the outputs) compute sum
    and carry; optional output inverter pairs (``4X`` + ``9X``) model the
    drive-strength mix the figure shows.  ``suffix`` namespaces
    nets/instances so several adders can be stitched into a ripple-carry
    chain.
    """
    internal_drive, output_drive, buffer_drive = 2.0, 4.0, 9.0
    netlist = GateNetlist("full_adder")
    a, b, cin = f"a{suffix}", f"b{suffix}", f"cin{suffix}"
    sum_net, carry_net = f"sum{suffix}", f"carry{suffix}"

    def net(local: str) -> str:
        return f"{local}{suffix}"

    nand = "NAND2"
    netlist.add_gate(f"g1{suffix}", nand, {"A": a, "B": b, "out": net("n1")}, internal_drive)
    netlist.add_gate(f"g2{suffix}", nand, {"A": a, "B": net("n1"), "out": net("n2")}, internal_drive)
    netlist.add_gate(f"g3{suffix}", nand, {"A": b, "B": net("n1"), "out": net("n3")}, internal_drive)
    netlist.add_gate(f"g4{suffix}", nand, {"A": net("n2"), "B": net("n3"), "out": net("n4")}, internal_drive)
    netlist.add_gate(f"g5{suffix}", nand, {"A": net("n4"), "B": cin, "out": net("n5")}, internal_drive)
    netlist.add_gate(f"g6{suffix}", nand, {"A": net("n4"), "B": net("n5"), "out": net("n6")}, internal_drive)
    netlist.add_gate(f"g7{suffix}", nand, {"A": cin, "B": net("n5"), "out": net("n7")}, internal_drive)

    if buffer_outputs:
        netlist.add_gate(f"g8{suffix}", nand, {"A": net("n6"), "B": net("n7"), "out": net("s0")}, output_drive)
        netlist.add_gate(f"g9{suffix}", nand, {"A": net("n5"), "B": net("n1"), "out": net("c0")}, output_drive)
        netlist.add_gate(f"ginv_s1{suffix}", "INV", {"A": net("s0"), "out": net("s1")}, output_drive)
        netlist.add_gate(f"ginv_s2{suffix}", "INV", {"A": net("s1"), "out": sum_net}, buffer_drive)
        netlist.add_gate(f"ginv_c1{suffix}", "INV", {"A": net("c0"), "out": net("c1")}, output_drive)
        netlist.add_gate(f"ginv_c2{suffix}", "INV", {"A": net("c1"), "out": carry_net}, buffer_drive)
    else:
        netlist.add_gate(f"g8{suffix}", nand, {"A": net("n6"), "B": net("n7"), "out": sum_net}, output_drive)
        netlist.add_gate(f"g9{suffix}", nand, {"A": net("n5"), "B": net("n1"), "out": carry_net}, output_drive)

    netlist.declare_io([a, b, cin], [sum_net, carry_net])
    netlist.validate()
    return netlist


def ripple_carry_adder_netlist(bits: int = 4) -> GateNetlist:
    """A ripple-carry adder built by chaining full adders (used as a larger
    flow example beyond the paper's single-bit case study)."""
    if bits < 1:
        raise FlowError("A ripple-carry adder needs at least one bit")
    netlist = GateNetlist(f"rca{bits}")
    inputs: List[str] = []
    outputs: List[str] = []
    carry_in = "cin"
    inputs.append(carry_in)
    for bit in range(bits):
        stage = full_adder_netlist(suffix=f"_b{bit}", buffer_outputs=False)
        rename = {
            f"a_b{bit}": f"a{bit}",
            f"b_b{bit}": f"b{bit}",
            f"cin_b{bit}": carry_in,
            f"sum_b{bit}": f"sum{bit}",
            f"carry_b{bit}": f"carry{bit}",
        }
        for gate in stage.gates:
            connections = {
                pin: rename.get(net, net) for pin, net in gate.connections.items()
            }
            netlist.add_gate(gate.name, gate.cell_type, connections, gate.drive_strength)
        inputs.extend([f"a{bit}", f"b{bit}"])
        outputs.append(f"sum{bit}")
        carry_in = f"carry{bit}"
    outputs.append(carry_in)
    netlist.declare_io(inputs, outputs)
    netlist.validate()
    return netlist


def comparator_netlist(bits: int = 4) -> GateNetlist:
    """An N-bit equality comparator: ``eq = AND_i XNOR(a_i, b_i)``.

    Each bit's XNOR is the classic four-NAND XOR followed by an inverter;
    the per-bit results are AND-reduced through NAND + INV pairs.  Uses
    only NAND2/INV (``2X``, with a ``4X`` output driver), so it maps onto
    the same library cells as the adders while exercising a different
    instance mix.
    """
    if bits < 1:
        raise FlowError("A comparator needs at least one bit")
    internal_drive, output_drive = 2.0, 4.0
    netlist = GateNetlist(f"cmp{bits}")
    inputs: List[str] = []
    xnors: List[str] = []
    for bit in range(bits):
        a, b = f"a{bit}", f"b{bit}"
        inputs.extend([a, b])
        n1, n2, n3 = f"x{bit}_n1", f"x{bit}_n2", f"x{bit}_n3"
        xor, xnor = f"x{bit}_xor", f"xnor{bit}"
        netlist.add_gate(f"gx{bit}_1", "NAND2", {"A": a, "B": b, "out": n1}, internal_drive)
        netlist.add_gate(f"gx{bit}_2", "NAND2", {"A": a, "B": n1, "out": n2}, internal_drive)
        netlist.add_gate(f"gx{bit}_3", "NAND2", {"A": b, "B": n1, "out": n3}, internal_drive)
        netlist.add_gate(f"gx{bit}_4", "NAND2", {"A": n2, "B": n3, "out": xor}, internal_drive)
        netlist.add_gate(f"gx{bit}_5", "INV", {"A": xor, "out": xnor}, internal_drive)
        xnors.append(xnor)

    acc = xnors[0]
    for bit in range(1, bits):
        drive = output_drive if bit == bits - 1 else internal_drive
        out = "eq" if bit == bits - 1 else f"and{bit}"
        netlist.add_gate(f"ga{bit}", "NAND2",
                         {"A": acc, "B": xnors[bit], "out": f"nand{bit}"},
                         internal_drive)
        netlist.add_gate(f"gai{bit}", "INV", {"A": f"nand{bit}", "out": out}, drive)
        acc = out
    if bits == 1:
        netlist.add_gate("gbuf_n", "INV", {"A": acc, "out": "eq_n"}, internal_drive)
        netlist.add_gate("gbuf", "INV", {"A": "eq_n", "out": "eq"}, output_drive)

    netlist.declare_io(inputs, ["eq"])
    netlist.validate()
    return netlist


def mac_slice_netlist(bits: int = 4) -> GateNetlist:
    """A multiply-accumulate slice: ``sum = a & {bits{b}} + c``.

    Each partial product ``p_i = AND(a_i, b)`` (one shared multiplicand
    bit ``b``) feeds a ripple full-adder chain against the accumulator
    word ``c`` — the per-cycle workhorse of a serial MAC unit, and a
    third built-in circuit family mixing AND trees with carry chains.
    """
    if bits < 1:
        raise FlowError("A MAC slice needs at least one bit")
    internal_drive = 2.0
    netlist = GateNetlist(f"mac{bits}")
    inputs: List[str] = ["b", "cin"]
    outputs: List[str] = []
    carry_in = "cin"
    for bit in range(bits):
        a, c = f"a{bit}", f"c{bit}"
        inputs.extend([a, c])
        netlist.add_gate(f"gp{bit}_n", "NAND2",
                         {"A": a, "B": "b", "out": f"pp{bit}_n"}, internal_drive)
        netlist.add_gate(f"gp{bit}", "INV",
                         {"A": f"pp{bit}_n", "out": f"pp{bit}"}, internal_drive)
        stage = full_adder_netlist(suffix=f"_m{bit}", buffer_outputs=False)
        rename = {
            f"a_m{bit}": f"pp{bit}",
            f"b_m{bit}": c,
            f"cin_m{bit}": carry_in,
            f"sum_m{bit}": f"sum{bit}",
            f"carry_m{bit}": f"carry{bit}",
        }
        for gate in stage.gates:
            connections = {
                pin: rename.get(net, net) for pin, net in gate.connections.items()
            }
            netlist.add_gate(gate.name, gate.cell_type, connections, gate.drive_strength)
        outputs.append(f"sum{bit}")
        carry_in = f"carry{bit}"
    outputs.append(carry_in)
    netlist.declare_io(inputs, outputs)
    netlist.validate()
    return netlist


def full_adder_verilog() -> str:
    """Structural Verilog text of the Figure 8 full adder (round-trips
    through :func:`parse_structural_verilog`)."""
    netlist = full_adder_netlist()
    lines = [f"module {netlist.name} (a, b, cin, sum, carry);"]
    lines.append("  input a, b, cin;")
    lines.append("  output sum, carry;")
    wires = [n for n in netlist.nets() if n not in netlist.inputs + netlist.outputs]
    lines.append(f"  wire {', '.join(sorted(wires))};")
    for gate in netlist.gates:
        ports = ", ".join(f".{pin}({net})" for pin, net in gate.connections.items())
        lines.append(f"  {gate.cell_type}_{gate.drive_strength:g}X {gate.name} ({ports});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
