"""Functional immunity checking against mispositioned CNTs.

Given a generated cell (its :class:`~repro.core.spec.CellAnnotations`) and a
population of CNTs (nominal plus mispositioned), the checker derives the
logic function the physical layout would actually implement and compares it
with the intended truth table:

1. For every CNT, the contacts, gates and etched regions it crosses are
   collected as intervals along the tube (doping follows the paper's
   process: regions under a gate stay intrinsic and are controlled by that
   gate; everything else is doped and always conducts; etched intervals cut
   the tube).
2. Under a given input assignment, two contacts are electrically connected
   through a tube when every gate interval between them is turned on
   (n-type conducts at 1, p-type at 0) and no etched interval lies between
   them.
3. The union of these connections over all tubes (plus the implicit
   metal connection between same-net contacts) yields the driven value of
   the output: pulled high, pulled low, floating, or a Vdd-Gnd conflict.

A layout is *immune* when, for every input assignment, the perturbed cell
still drives the intended value.  This is exactly the property the paper's
Euler-path layouts guarantee by construction and the vulnerable layouts of
Figure 2(b) lack.

Two evaluation paths implement the same semantics:

* the **batched path** (default) precomputes all assignment-independent
  geometry into NumPy arrays once per checker and evaluates whole defect
  populations — ``trials × assignments`` at a time — with array operations
  (:meth:`ImmunityChecker.pair_conduction` →
  :meth:`ImmunityChecker.adjacency_matrices` →
  :meth:`ImmunityChecker.output_codes`);
* the **reference path** walks each tube's ordered crossings in Python
  (:meth:`ImmunityChecker.truth_table_reference`), preserved as the
  behavioural oracle; :meth:`ImmunityChecker.check` and the Monte Carlo
  reference loop tabulate through it.

Both produce identical truth tables for identical populations: the batched
path replicates the scalar slab clipping, the stable midpoint ordering and
the blocking rules bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.spec import CellAnnotations
from ..errors import ImmunityAnalysisError
from ..logic.truthtable import TruthTable
from .cnts import CNTBatch, CNTInstance

#: Output drive codes used by the batched engine: pulled high, pulled low,
#: floating or conflicting drive (matches ``None`` in :class:`TruthTable`).
CODE_HIGH = np.int8(1)
CODE_LOW = np.int8(0)
CODE_UNDRIVEN = np.int8(-1)


@dataclass(frozen=True)
class _TubeCrossing:
    """One region crossed by a tube, at interval [t_start, t_end]."""

    t_start: float
    t_end: float
    kind: str           # "contact" | "gate" | "etch"
    label: str = ""     # net for contacts, signal for gates
    device: str = ""    # gate polarity ("nfet"/"pfet")

    @property
    def midpoint(self) -> float:
        return (self.t_start + self.t_end) / 2.0


@dataclass
class TubeAnalysis:
    """Pre-computed crossings of one CNT (assignment-independent)."""

    cnt: CNTInstance
    crossings: List[_TubeCrossing] = field(default_factory=list)

    def conducting_pairs(self, assignment: Mapping[str, bool]) -> List[Tuple[str, str]]:
        """Net pairs this tube connects under the given input assignment."""
        ordered = sorted(self.crossings, key=lambda c: c.midpoint)
        pairs: List[Tuple[str, str]] = []
        # Walk contacts left to right; a blocking interval (off gate or etch)
        # between two contacts breaks the conduction.  A metallic tube cannot
        # be turned off by a gate — only an etched region cuts it.
        last_contact: Optional[str] = None
        blocked = False
        for crossing in ordered:
            if crossing.kind == "contact":
                if last_contact is not None and not blocked:
                    pairs.append((last_contact, crossing.label))
                last_contact = crossing.label
                blocked = False
            elif crossing.kind == "etch":
                blocked = True
            elif crossing.kind == "gate":
                if not self.cnt.metallic and not _gate_is_on(crossing, assignment):
                    blocked = True
        return pairs


def _gate_is_on(crossing: _TubeCrossing, assignment: Mapping[str, bool]) -> bool:
    try:
        value = bool(assignment[crossing.label])
    except KeyError:
        raise ImmunityAnalysisError(
            f"No value provided for input {crossing.label!r}"
        ) from None
    return value if crossing.device == "nfet" else not value


@dataclass(frozen=True)
class ImmunityReport:
    """Outcome of checking one cell against one CNT population."""

    cell_name: str
    immune: bool
    failing_assignments: Tuple[Dict[str, bool], ...]
    observed: TruthTable
    expected: TruthTable
    nominal_matches: bool
    mispositioned_count: int

    @property
    def failure_count(self) -> int:
        return len(self.failing_assignments)


class _BatchGeometry:
    """Assignment-independent cell geometry packed into NumPy arrays.

    Built once per :class:`ImmunityChecker`; every Monte Carlo batch reuses
    the same rectangle slabs, net indices, contact-pair table and per-gate
    assignment masks.
    """

    def __init__(self, annotations: CellAnnotations, inputs: Tuple[str, ...],
                 vdd_net: str, gnd_net: str, output_net: str):
        contacts = annotations.contacts
        gates = annotations.gates
        etches = annotations.etches

        def rect_array(rects) -> np.ndarray:
            return np.array(
                [[r.x1, r.y1, r.x2, r.y2] for r in rects], dtype=float
            ).reshape(-1, 4)

        self.contact_rects = rect_array([c.rect for c in contacts])
        self.gate_rects = rect_array([g.rect for g in gates])
        self.etch_rects = rect_array([e.rect for e in etches])

        nets = list(dict.fromkeys(
            [c.net for c in contacts] + [vdd_net, gnd_net, output_net]
        ))
        self.nets = nets
        index = {net: i for i, net in enumerate(nets)}
        self.vdd_index = index[vdd_net]
        self.gnd_index = index[gnd_net]
        self.output_index = index[output_net]
        contact_net = np.array([index[c.net] for c in contacts], dtype=np.intp)

        # All unordered contact pairs (i < j); conduction between adjacent
        # contacts in midpoint order closes transitively to exactly this
        # all-pairs relation, so connectivity is unchanged.
        pair_a, pair_b = np.triu_indices(len(contacts), k=1)
        self.pair_a = pair_a
        self.pair_b = pair_b
        self.pair_net_a = contact_net[pair_a]
        self.pair_net_b = contact_net[pair_b]

        # Input assignments enumerated exactly like TruthTable rows:
        # row ``k`` has ``inputs[0]`` as the most significant bit.
        n = len(inputs)
        self.num_assignments = 1 << n
        ks = np.arange(self.num_assignments)
        if n:
            shifts = (n - 1 - np.arange(n))[None, :]
            self.assignment_bits = ((ks[:, None] >> shifts) & 1).astype(bool)
        else:
            self.assignment_bits = np.zeros((1, 0), dtype=bool)

        input_pos = {name: i for i, name in enumerate(inputs)}
        self.gate_signals = [g.signal for g in gates]
        self.gate_known = np.array(
            [g.signal in input_pos for g in gates], dtype=bool
        ).reshape(-1)
        gate_input = np.array(
            [input_pos.get(g.signal, 0) for g in gates], dtype=np.intp
        )
        gate_is_n = np.array([g.device == "nfet" for g in gates], dtype=bool)
        if len(gates):
            signal_values = self.assignment_bits[:, gate_input].T  # (ng, A)
            self.gate_on = np.where(gate_is_n[:, None], signal_values,
                                    ~signal_values)
        else:
            self.gate_on = np.zeros((0, self.num_assignments), dtype=bool)
        # int32 so the off-gate matmul counts cannot wrap, however many
        # gate crossings sit between one contact pair.
        self.gate_off_counts = (~self.gate_on).astype(np.int32)


def _segment_rect_intervals(
    starts: np.ndarray, ends: np.ndarray, rects: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Liang-Barsky slab clipping of segments against rects.

    Returns ``(valid, t_min, t_max)`` of shapes ``(T, R)`` — the exact
    array counterpart of :meth:`CNTInstance.intersection_interval`,
    including the parallel-slab tolerance (1e-12) and the degenerate-overlap
    cutoff (1e-9), applied with the same operation order so results agree
    bitwise with the scalar path.
    """
    tubes = starts.shape[0]
    count = rects.shape[0]
    if tubes == 0 or count == 0:
        shape = (tubes, count)
        return (np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape))
    t_min = np.zeros((tubes, count))
    t_max = np.ones((tubes, count))
    valid = np.ones((tubes, count), dtype=bool)
    deltas = ends - starts
    for axis, (low_col, high_col) in enumerate(((0, 2), (1, 3))):
        delta = deltas[:, axis:axis + 1]
        origin = starts[:, axis:axis + 1]
        low = rects[None, :, low_col]
        high = rects[None, :, high_col]
        parallel = np.abs(delta) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low = (low - origin) / delta
            t_high = (high - origin) / delta
        lo = np.minimum(t_low, t_high)
        hi = np.maximum(t_low, t_high)
        inside = (origin >= low) & (origin <= high)
        valid &= np.where(parallel, inside, True)
        lo = np.where(parallel, 0.0, lo)
        hi = np.where(parallel, 1.0, hi)
        t_min = np.maximum(t_min, lo)
        t_max = np.minimum(t_max, hi)
    valid &= (t_max - t_min) > 1e-9
    return valid, t_min, t_max


class ImmunityChecker:
    """Evaluate the logic function a physical CNT population implements.

    Single populations go through :meth:`truth_table` / :meth:`check`;
    Monte Carlo batches (many trials at once) go through
    :meth:`evaluate_batch` on top of the precomputed geometry arrays.
    """

    def __init__(self, annotations: CellAnnotations,
                 vdd_net: str = "vdd", gnd_net: str = "gnd"):
        if not annotations.contacts:
            raise ImmunityAnalysisError(
                f"Cell {annotations.cell_name!r} has no contacts to analyse"
            )
        self.annotations = annotations
        self.vdd_net = vdd_net
        self.gnd_net = gnd_net
        self.output_net = annotations.output_net
        self.inputs = tuple(annotations.inputs) or tuple(annotations.signals())
        self._geometry: Optional[_BatchGeometry] = None

    @property
    def geometry(self) -> _BatchGeometry:
        """The packed assignment-independent geometry (built lazily once)."""
        if self._geometry is None:
            self._geometry = _BatchGeometry(
                self.annotations, self.inputs,
                self.vdd_net, self.gnd_net, self.output_net,
            )
        return self._geometry

    # -- tube-level analysis ------------------------------------------------------

    def analyse_tube(self, cnt: CNTInstance) -> TubeAnalysis:
        """Collect the contact/gate/etch crossings of one tube."""
        analysis = TubeAnalysis(cnt=cnt)
        for contact in self.annotations.contacts:
            interval = cnt.intersection_interval(contact.rect)
            if interval:
                analysis.crossings.append(
                    _TubeCrossing(interval[0], interval[1], "contact", contact.net)
                )
        for gate in self.annotations.gates:
            interval = cnt.intersection_interval(gate.rect)
            if interval:
                analysis.crossings.append(
                    _TubeCrossing(interval[0], interval[1], "gate", gate.signal, gate.device)
                )
        for etch in self.annotations.etches:
            interval = cnt.intersection_interval(etch.rect)
            if interval:
                analysis.crossings.append(
                    _TubeCrossing(interval[0], interval[1], "etch")
                )
        return analysis

    # -- cell-level evaluation -----------------------------------------------------

    def output_value(self, tubes: Sequence[TubeAnalysis],
                     assignment: Mapping[str, bool]) -> Optional[bool]:
        """Value driven on the output under one assignment.

        ``True``/``False`` when the output is cleanly pulled to Vdd/Gnd,
        ``None`` for a floating output or a Vdd-Gnd conflict.
        """
        adjacency: Dict[str, set] = {}

        def connect(net_a: str, net_b: str) -> None:
            adjacency.setdefault(net_a, set()).add(net_b)
            adjacency.setdefault(net_b, set()).add(net_a)

        for tube in tubes:
            for net_a, net_b in tube.conducting_pairs(assignment):
                if net_a != net_b:
                    connect(net_a, net_b)

        reached = self._reachable(self.output_net, adjacency)
        pulled_high = self.vdd_net in reached
        pulled_low = self.gnd_net in reached
        if pulled_high and not pulled_low:
            return True
        if pulled_low and not pulled_high:
            return False
        return None

    @staticmethod
    def _reachable(start: str, adjacency: Dict[str, set]) -> set:
        frontier = [start]
        reached = {start}
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency.get(node, ()):
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return reached

    # -- batched evaluation --------------------------------------------------------

    def pair_conduction(self, batch: CNTBatch) -> np.ndarray:
        """Per-tube contact-pair conduction under every input assignment.

        Returns a ``(tubes, pairs, assignments)`` boolean array:
        ``cond[t, p, k]`` is ``True`` when tube ``t`` connects contact pair
        ``p`` under assignment ``k`` — both contacts crossed, no etched
        interval between them, and every gate between them turned on (the
        gate condition is waived for metallic tubes).
        """
        geometry = self.geometry
        c_valid, c_min, c_max = _segment_rect_intervals(
            batch.starts, batch.ends, geometry.contact_rects
        )
        g_valid, g_min, g_max = _segment_rect_intervals(
            batch.starts, batch.ends, geometry.gate_rects
        )
        e_valid, e_min, e_max = _segment_rect_intervals(
            batch.starts, batch.ends, geometry.etch_rects
        )
        metallic = batch.metallic

        if not geometry.gate_known.all():
            crossed = g_valid[:, ~geometry.gate_known] & ~metallic[:, None]
            if crossed.any():
                unknown = [s for s, known in
                           zip(geometry.gate_signals, geometry.gate_known)
                           if not known]
                raise ImmunityAnalysisError(
                    f"No value provided for input {unknown[0]!r}"
                )

        c_mid = (c_min + c_max) / 2.0
        pair_a, pair_b = geometry.pair_a, geometry.pair_b
        tubes = len(batch)
        pairs = pair_a.shape[0]
        num_assignments = geometry.num_assignments
        if tubes == 0 or pairs == 0:
            return np.zeros((tubes, pairs, num_assignments), dtype=bool)

        pair_valid = c_valid[:, pair_a] & c_valid[:, pair_b]
        lo = np.minimum(c_mid[:, pair_a], c_mid[:, pair_b])[:, :, None]
        hi = np.maximum(c_mid[:, pair_a], c_mid[:, pair_b])[:, :, None]

        # A blocker sits between two contacts when its midpoint falls in
        # [lo, hi): the half-open bound reproduces the stable crossing order
        # of the reference walk (contacts sort before same-midpoint gates).
        def between(valid, t_min, t_max):
            mid = ((t_min + t_max) / 2.0)[:, None, :]
            return (mid >= lo) & (mid < hi) & valid[:, None, :]

        if geometry.etch_rects.shape[0]:
            etch_blocked = between(e_valid, e_min, e_max).any(axis=2)
        else:
            etch_blocked = np.zeros((tubes, pairs), dtype=bool)

        if geometry.gate_rects.shape[0]:
            gate_between = between(g_valid, g_min, g_max)
            off_counts = (
                gate_between.reshape(tubes * pairs, -1).astype(np.int32)
                @ geometry.gate_off_counts
            ).reshape(tubes, pairs, num_assignments)
            gate_blocked = (off_counts > 0) & ~metallic[:, None, None]
        else:
            gate_blocked = np.zeros((tubes, pairs, num_assignments), dtype=bool)

        return (pair_valid & ~etch_blocked)[:, :, None] & ~gate_blocked

    def adjacency_matrices(self, conduction: np.ndarray,
                           groups: int = 1) -> np.ndarray:
        """Net adjacency per trial group and assignment.

        ``conduction`` is the ``(tubes, pairs, assignments)`` output of
        :meth:`pair_conduction` where the tubes of each trial are stored
        contiguously; the result is a ``(groups, assignments, nets, nets)``
        boolean adjacency array.
        """
        geometry = self.geometry
        tubes, pairs, num_assignments = conduction.shape
        if groups <= 0:
            raise ImmunityAnalysisError("groups must be positive")
        if tubes % groups:
            raise ImmunityAnalysisError(
                f"{tubes} tubes do not split into {groups} equal trial groups"
            )
        nets = len(geometry.nets)
        grouped = conduction.reshape(groups, tubes // groups, pairs,
                                     num_assignments).any(axis=1)
        adjacency = np.zeros((groups, num_assignments, nets, nets), dtype=bool)
        for p in range(pairs):
            net_a = geometry.pair_net_a[p]
            net_b = geometry.pair_net_b[p]
            if net_a == net_b:
                continue
            edge = grouped[:, p, :]
            adjacency[:, :, net_a, net_b] |= edge
            adjacency[:, :, net_b, net_a] |= edge
        return adjacency

    def output_codes(self, adjacency: np.ndarray,
                     base_adjacency: Optional[np.ndarray] = None) -> np.ndarray:
        """Output drive codes from per-group adjacency matrices.

        ``base_adjacency`` (e.g. from the nominal tubes, shape
        ``(assignments, nets, nets)``) is OR-ed into every group.  Returns a
        ``(groups, assignments)`` int8 array of ``CODE_HIGH`` / ``CODE_LOW``
        / ``CODE_UNDRIVEN``.
        """
        geometry = self.geometry
        if base_adjacency is not None:
            adjacency = adjacency | base_adjacency[None, :, :, :]
        else:
            adjacency = adjacency.copy()  # the diagonal is set below
        nets = adjacency.shape[-1]
        diagonal = np.arange(nets)
        adjacency[:, :, diagonal, diagonal] = True
        reached = adjacency[:, :, geometry.output_index, :]
        for _ in range(nets - 1):
            expanded = (reached[:, :, :, None] & adjacency).any(axis=2)
            if (expanded == reached).all():
                break
            reached = expanded
        pulled_high = reached[:, :, geometry.vdd_index]
        pulled_low = reached[:, :, geometry.gnd_index]
        return np.where(
            pulled_high & ~pulled_low, CODE_HIGH,
            np.where(pulled_low & ~pulled_high, CODE_LOW, CODE_UNDRIVEN),
        ).astype(np.int8)

    def evaluate_batch(self, batch: CNTBatch, groups: int = 1,
                       base_adjacency: Optional[np.ndarray] = None) -> np.ndarray:
        """Drive codes for ``groups`` equally sized trials in one batch.

        The tubes of each trial must be contiguous in ``batch``.  Returns a
        ``(groups, assignments)`` int8 code array; pass the nominal tubes'
        adjacency as ``base_adjacency`` so every trial includes them.
        """
        conduction = self.pair_conduction(batch)
        adjacency = self.adjacency_matrices(conduction, groups)
        return self.output_codes(adjacency, base_adjacency)

    def base_state(self, batch: CNTBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency and drive codes of a trial-independent population.

        Used for the nominal tubes: returns ``(adjacency, codes)`` of
        shapes ``(assignments, nets, nets)`` and ``(assignments,)``.
        """
        conduction = self.pair_conduction(batch)
        adjacency = self.adjacency_matrices(conduction, groups=1)
        codes = self.output_codes(adjacency)
        return adjacency[0], codes[0]

    def truth_table_codes(self, table: TruthTable) -> np.ndarray:
        """A truth table as an ``(assignments,)`` int8 code array in this
        checker's assignment order."""
        codes = np.empty(self.geometry.num_assignments, dtype=np.int8)
        bits = self.geometry.assignment_bits
        for k in range(codes.shape[0]):
            assignment = dict(zip(self.inputs, (bool(b) for b in bits[k])))
            value = table.row(assignment)
            codes[k] = CODE_UNDRIVEN if value is None else (
                CODE_HIGH if value else CODE_LOW
            )
        return codes

    def codes_to_truth_table(self, codes: np.ndarray) -> TruthTable:
        """An ``(assignments,)`` code array as a :class:`TruthTable`."""
        outputs = tuple(
            None if code == CODE_UNDRIVEN else bool(code == CODE_HIGH)
            for code in codes
        )
        return TruthTable(self.inputs, outputs)

    # -- single-population API ----------------------------------------------------

    def truth_table(self, cnts: Sequence[CNTInstance]) -> TruthTable:
        """Truth table implemented by the given CNT population (batched)."""
        batch = CNTBatch.from_instances(cnts)
        codes = self.evaluate_batch(batch, groups=1)[0]
        return self.codes_to_truth_table(codes)

    def truth_table_reference(self, cnts: Sequence[CNTInstance]) -> TruthTable:
        """Truth table via the scalar per-tube walk (behavioural oracle)."""
        tubes = [self.analyse_tube(cnt) for cnt in cnts]
        return TruthTable.from_function(
            lambda assignment: self.output_value(tubes, assignment), self.inputs
        )

    def check(self, nominal: Sequence[CNTInstance],
              mispositioned: Sequence[CNTInstance],
              expected: Optional[TruthTable] = None) -> ImmunityReport:
        """Full immunity check of a CNT population against the intended
        function (defaults to the function the nominal tubes implement),
        tabulated by the scalar walk (:meth:`truth_table_reference`)."""
        nominal_table = self.truth_table_reference(nominal)
        if expected is None:
            expected = nominal_table
        observed = self.truth_table_reference(
            list(nominal) + list(mispositioned))
        failing = tuple(
            assignment
            for assignment, value in observed.rows()
            if value != expected.row(assignment)
        )
        return ImmunityReport(
            cell_name=self.annotations.cell_name,
            immune=not failing,
            failing_assignments=failing,
            observed=observed,
            expected=expected,
            nominal_matches=nominal_table.equivalent_to(expected),
            mispositioned_count=len(mispositioned),
        )
