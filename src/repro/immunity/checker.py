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

One batched path evaluates every population.  It precomputes all
assignment-independent geometry into NumPy arrays once per checker and
evaluates whole defect populations — ``trials × assignments`` at a time —
with array operations (:meth:`ImmunityChecker._pair_conduction` →
:meth:`ImmunityChecker._adjacency_matrices` →
:meth:`ImmunityChecker.output_codes`); :meth:`ImmunityChecker.truth_table`
and :meth:`ImmunityChecker.check` run it on one population.  Each tube is
clipped once against the contacts, gates and etches together.  Step 2 is
never tested pair by pair: every crossed contact counts the blockers (etches
and off gates) whose midpoint lies before its own — its prefix count — and
two contacts are separated by a blocker exactly when their counts differ
(:meth:`ImmunityChecker._pair_conduction` gives the argument).  The scalar
walk it was written from, each tube's ordered crossings in Python, lives
with the tests (``tests/reference.py``) as the behavioural oracle: the
batched path replicates its slab clipping, stable midpoint ordering and
blocking rules bit for bit, so both give identical truth tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.spec import CellAnnotations
from ..errors import ImmunityAnalysisError
from ..logic.network import GND_NET, VDD_NET
from ..logic.truthtable import TruthTable
from .cnts import CNTBatch, CNTInstance

#: Output drive codes used by the batched engine: pulled high, pulled low,
#: floating or conflicting drive (matches ``None`` in :class:`TruthTable`).
CODE_HIGH = np.int8(1)
CODE_LOW = np.int8(0)
CODE_UNDRIVEN = np.int8(-1)


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
    the same rectangle slabs, net indices, contact-pair table and blocker
    weights.
    """

    def __init__(self, annotations: CellAnnotations, inputs: Tuple[str, ...],
                 vdd_net: str, gnd_net: str, output_net: str):
        contacts = annotations.contacts
        gates = annotations.gates
        etches = annotations.etches

        # Contacts, then gates, then etches: one clip covers all three
        # kinds, and each kind is a column slice of the result.  Gates and
        # etches together are the blockers.
        self.rects = np.array(
            [[r.x1, r.y1, r.x2, r.y2]
             for r in [c.rect for c in contacts] + [g.rect for g in gates]
             + [e.rect for e in etches]], dtype=float,
        ).reshape(-1, 4)
        self.contact_count = len(contacts)
        self.gate_count = len(gates)

        nets = list(dict.fromkeys(
            [c.net for c in contacts] + [vdd_net, gnd_net, output_net]
        ))
        self.nets = nets
        index = {net: i for i, net in enumerate(nets)}
        self.vdd_index = index[vdd_net]
        self.gnd_index = index[gnd_net]
        self.output_index = index[output_net]
        contact_net = [index[c.net] for c in contacts]

        # All unordered contact pairs (i < j); conduction between adjacent
        # contacts in midpoint order closes transitively to exactly this
        # all-pairs relation, so connectivity is unchanged.
        # ``triu_indices`` orders the pairs by their first contact, so the
        # pairs ``(a, a + 1 ..)`` are one contiguous run ``pair_rows[a]``.
        pair_a, pair_b = np.triu_indices(len(contacts), k=1)
        bounds = np.searchsorted(pair_a, np.arange(len(contacts) + 1))
        self.pair_rows = [slice(int(start), int(stop))
                          for start, stop in zip(bounds[:-1], bounds[1:])]
        # The pairs joining two distinct nets, per net edge ``(a, b)``.
        edges: Dict[Tuple[int, int], List[int]] = {}
        for p, (a, b) in enumerate(zip(pair_a.tolist(), pair_b.tolist())):
            net_a, net_b = sorted((contact_net[a], contact_net[b]))
            if net_a != net_b:
                edges.setdefault((net_a, net_b), []).append(p)
        self.edges = [(net_a, net_b, np.array(pairs))
                      for (net_a, net_b), pairs in edges.items()]

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
            gate_on = np.where(gate_is_n[:, None], signal_values,
                               ~signal_values)
        else:
            gate_on = np.zeros((0, self.num_assignments), dtype=bool)
        # ``keys = key_weights @ terms`` (see _pair_conduction).  An off gate
        # weighs 1 and an etch ``len(gates) + 1``, more than all the gates
        # together, so the key of a crossed contact is below ``span`` and
        # equal keys mean equal off-gate and equal etch counts.  A missed
        # contact ``c`` adds ``-span * (c + 1)``: a negative key no other
        # contact shares.  float64 holds these small integers exactly, and
        # NumPy sends float matmuls to BLAS (integer ones not).
        span = (len(gates) + 1) * (len(etches) + 1)
        self.key_weights = np.concatenate([
            ~gate_on.T,
            np.full((self.num_assignments, len(etches)), len(gates) + 1),
            np.full((self.num_assignments, 1), span),
        ], axis=1).astype(float)
        self.missed_codes = -(np.arange(len(contacts)) + 1.0)


def _segment_rect_intervals(
    starts: np.ndarray, ends: np.ndarray, rects: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Liang-Barsky slab clipping of segments against rects.

    Returns ``(valid, t_min, t_max)`` of shapes ``(R, T)`` (rects by
    tubes) — the exact array counterpart of the scalar
    ``intersection_interval`` in ``tests/reference.py``, including the
    parallel-slab tolerance (1e-12) and the degenerate-overlap cutoff
    (1e-9), applied with the same operation order so results agree
    bitwise with it.  Only the tubes parallel to a slab take its parallel
    branch.
    """
    tubes = starts.shape[0]
    count = rects.shape[0]
    if tubes == 0 or count == 0:
        shape = (count, tubes)
        return (np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape))
    t_min = np.zeros((count, tubes))
    t_max = np.ones((count, tubes))
    t_low = np.empty((count, tubes))
    t_high = np.empty((count, tubes))
    lo = np.empty((count, tubes))
    inside = np.ones((count, tubes), dtype=bool)
    origins = np.ascontiguousarray(starts.T)
    deltas = np.ascontiguousarray((ends - starts).T)
    for axis, (low_col, high_col) in enumerate(((0, 2), (1, 3))):
        delta = deltas[axis]
        origin = origins[axis]
        low = rects[:, low_col, None]
        high = rects[:, high_col, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(low, origin, out=t_low)
            t_low /= delta
            np.subtract(high, origin, out=t_high)
            t_high /= delta
        np.minimum(t_low, t_high, out=lo)
        hi = np.maximum(t_low, t_high, out=t_high)
        parallel = np.flatnonzero(np.abs(delta) < 1e-12)
        if parallel.size:
            lo[:, parallel] = 0.0
            hi[:, parallel] = 1.0
            inside[:, parallel] &= ((origin[parallel] >= low)
                                    & (origin[parallel] <= high))
        np.maximum(t_min, lo, out=t_min)
        np.minimum(t_max, hi, out=t_max)
    valid = np.subtract(t_max, t_min, out=lo) > 1e-9
    valid &= inside
    return valid, t_min, t_max


class ImmunityChecker:
    """Evaluate the logic function a physical CNT population implements.

    Single populations go through :meth:`truth_table` / :meth:`check`;
    Monte Carlo batches (many trials at once) go through
    :meth:`evaluate_batch` on top of the precomputed geometry arrays.
    Batched arrays keep the tubes on their last, contiguous axis.
    """

    vdd_net = VDD_NET
    gnd_net = GND_NET

    def __init__(self, annotations: CellAnnotations):
        if not annotations.contacts:
            raise ImmunityAnalysisError(
                f"Cell {annotations.cell_name!r} has no contacts to analyse"
            )
        self.annotations = annotations
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

    # -- batched evaluation --------------------------------------------------------

    def _pair_conduction(self, batch: CNTBatch) -> np.ndarray:
        """Per-tube contact-pair conduction under every input assignment.

        Returns a ``(pairs, assignments, tubes)`` boolean array:
        ``cond[p, k, t]`` is ``True`` when tube ``t`` connects contact pair
        ``p`` under assignment ``k`` — both contacts crossed, no etched
        interval between them, and every gate between them turned on (the
        gate condition is waived for metallic tubes).  Pairs are in
        ``numpy.triu_indices`` order of the annotations' contacts.

        A blocker (an etch, or a gate turned off) sits between two contacts
        when its midpoint falls in ``[lo, hi)``, the half-open span of the
        two contacts' midpoints along the tube; that reproduces the stable
        crossing order of the reference walk, where a contact sorts before
        a blocker at the same midpoint.  No pair is tested blocker by
        blocker.  Each crossed contact ``c`` counts ``below(c)``, the
        crossed blockers whose midpoint is ``< mid(c)``, and the blockers
        in ``[lo, hi)`` number ``|below(a) - below(b)|`` (the count below
        ``hi`` minus the count below ``lo``).  A pair is therefore blocked
        exactly when its contacts' counts differ, and it conducts when
        their keys — off-gate and etch counts in one number — are equal.
        The counts are small integers, so the rule is exact.
        """
        geometry = self.geometry
        valid, t_min, t_max = _segment_rect_intervals(
            batch.starts, batch.ends, geometry.rects
        )
        contacts = geometry.contact_count
        gates = slice(contacts, contacts + geometry.gate_count)
        metallic = batch.metallic

        if not geometry.gate_known.all():
            crossed = valid[gates][~geometry.gate_known] & ~metallic
            if crossed.any():
                unknown = [s for s, known in
                           zip(geometry.gate_signals, geometry.gate_known)
                           if not known]
                raise ImmunityAnalysisError(
                    f"No value provided for input {unknown[0]!r}"
                )

        mid = t_min + t_max
        mid /= 2.0
        # Gates cannot turn a metallic tube off: they do not count on it.
        blocking = valid[contacts:].copy()
        blocking[:geometry.gate_count] &= ~metallic
        weights = geometry.key_weights
        # (contacts, blockers + 1, tubes): the blockers crossed before each
        # contact's midpoint, then the missed-contact term.
        terms = np.empty((contacts, weights.shape[1], len(batch)))
        terms[:, :-1] = blocking & (mid[None, contacts:]
                                    < mid[:contacts, None])
        terms[:, -1] = ~valid[:contacts] * geometry.missed_codes[:, None]
        keys = weights @ terms

        conduction = np.empty((contacts * (contacts - 1) // 2,)
                              + keys.shape[1:], dtype=bool)
        for a, rows in enumerate(geometry.pair_rows):
            np.equal(keys[a + 1:], keys[a], out=conduction[rows])
        return conduction

    def _adjacency_matrices(self, conduction: np.ndarray,
                            groups: int = 1) -> np.ndarray:
        """Net adjacency per assignment and trial group.

        ``conduction`` is the ``(pairs, assignments, tubes)`` output of
        :meth:`_pair_conduction` with the tubes in slot-major order: tube
        ``j`` of group ``g`` at ``j * groups + g`` (:meth:`evaluate_batch`
        reorders a trial-contiguous batch so).  The result is a
        ``(nets, nets, assignments, groups)`` boolean adjacency array.
        """
        geometry = self.geometry
        pairs, num_assignments, tubes = conduction.shape
        if groups <= 0:
            raise ImmunityAnalysisError("groups must be positive")
        if tubes % groups:
            raise ImmunityAnalysisError(
                f"{tubes} tubes do not split into {groups} equal trial groups"
            )
        nets = len(geometry.nets)
        adjacency = np.zeros((nets, nets, num_assignments, groups), dtype=bool)
        grouped = conduction.reshape(pairs, num_assignments,
                                     tubes // groups, groups).any(axis=2)
        for net_a, net_b, edge_pairs in geometry.edges:
            edge = grouped[edge_pairs].any(axis=0)
            adjacency[net_a, net_b] = edge
            adjacency[net_b, net_a] = edge
        return adjacency

    def output_codes(self, adjacency: np.ndarray,
                     base_adjacency: Optional[np.ndarray] = None) -> np.ndarray:
        """Output drive codes from per-group adjacency matrices.

        ``adjacency`` is the ``(nets, nets, assignments, groups)`` output of
        :meth:`_adjacency_matrices`; ``base_adjacency`` (e.g. from the
        nominal tubes, shape ``(nets, nets, assignments)``) is OR-ed into
        every group.  Returns a ``(groups, assignments)`` int8 array of
        ``CODE_HIGH`` / ``CODE_LOW`` / ``CODE_UNDRIVEN``.
        """
        geometry = self.geometry
        if base_adjacency is not None:
            adjacency = adjacency | base_adjacency[..., None]
        else:
            adjacency = adjacency.copy()  # the diagonal is set below
        nets = adjacency.shape[0]
        diagonal = np.arange(nets)
        adjacency[diagonal, diagonal] = True
        reached = adjacency[geometry.output_index]
        for _ in range(nets - 1):
            expanded = (reached[:, None] & adjacency).any(axis=0)
            if (expanded == reached).all():
                break
            reached = expanded
        pulled_high = reached[geometry.vdd_index]
        pulled_low = reached[geometry.gnd_index]
        return np.where(
            pulled_high & ~pulled_low, CODE_HIGH,
            np.where(pulled_low & ~pulled_high, CODE_LOW, CODE_UNDRIVEN),
        ).astype(np.int8).T

    def evaluate_batch(self, batch: CNTBatch, groups: int = 1,
                       base_adjacency: Optional[np.ndarray] = None) -> np.ndarray:
        """Drive codes for ``groups`` equally sized trials in one batch.

        The tubes of each trial must be contiguous in ``batch``.  Returns a
        ``(groups, assignments)`` int8 code array; pass the nominal tubes'
        adjacency as ``base_adjacency`` so every trial includes them.
        """
        if groups > 1 and len(batch) % groups == 0:
            # Slot-major, as _adjacency_matrices takes it: each group's OR
            # over its tubes becomes an OR of contiguous blocks.
            order = np.arange(len(batch)).reshape(groups, -1).T.ravel()
            batch = CNTBatch(batch.starts[order], batch.ends[order],
                             batch.metallic[order], batch.mispositioned[order])
        conduction = self._pair_conduction(batch)
        adjacency = self._adjacency_matrices(conduction, groups)
        return self.output_codes(adjacency, base_adjacency)

    def base_state(self, batch: CNTBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency and drive codes of a trial-independent population.

        Used for the nominal tubes: returns ``(adjacency, codes)`` of
        shapes ``(nets, nets, assignments)`` and ``(assignments,)``.
        """
        conduction = self._pair_conduction(batch)
        adjacency = self._adjacency_matrices(conduction, groups=1)
        codes = self.output_codes(adjacency)
        return adjacency[..., 0], codes[0]

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

    def check(self, nominal: Sequence[CNTInstance],
              mispositioned: Sequence[CNTInstance],
              expected: Optional[TruthTable] = None) -> ImmunityReport:
        """Full immunity check of a CNT population against the intended
        function (defaults to the function the nominal tubes implement),
        tabulated by the batched path (:meth:`truth_table`)."""
        nominal_table = self.truth_table(nominal)
        if expected is None:
            expected = nominal_table
        observed = self.truth_table(list(nominal) + list(mispositioned))
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
