"""Transient simulation of transistor-level netlists.

The paper's electrical results come from HSPICE; this module provides the
offline equivalent: a small nodal transient solver over the CNFET/MOSFET
compact models.  Every internal net carries a lumped capacitance (device
loading plus any explicit capacitors); device currents charge and discharge
those capacitances.  Integration is explicit forward Euler on a fixed
sub-step grid (the :func:`stability_substep` rule: at most
``SUBSTEP_BUDGET`` sub-steps per run, never below 2 fs), which is robust
for the gate-sized circuits the experiments need (inverter chains, logic
gates, a full adder) and keeps the implementation dependency-free.

Engine
------
One engine integrates every case: it lowers a batch of
:class:`SimulationCase` once into NumPy structure arrays (see
*Precompiled array layout*), plans the sub-step schedule of every time
base with NumPy, and integrates every case in one sub-step loop
(:func:`run_transient_batch`, :meth:`TransientSimulator.run`).  That
loop runs in compiled C, one call per integration, when a C compiler is
available, and in NumPy otherwise, byte for byte alike
(:mod:`repro.circuit.stepper`); the NumPy stepper is the oracle the
library keeps.  The scalar per-substep loop the engine mirrors
operation for operation lives with the tests (``tests/reference.py``),
which demand bit-identity with it.

Precompiled array layout
------------------------
:class:`CompiledTransientBatch` lowers ``B`` cases into columns.  Cases of
one topology form a *block*: the union over blocks has ``T`` transistors
(``n_devices`` n-type ones first), ``N`` state rows (``I`` of them
integrated nets), ``S`` driven source nets and at most ``R``
contributions per net.  Cases of one time base form a *group*, whose
columns are contiguous; ``G`` groups make the schedule:

====================  ==============  ==================================
array                 shape           contents
====================  ==============  ==================================
``block_rows``        ``(N_b,)``      state row of each of a block's
                                      ``block_nets``
``terminal_idx``      ``(3T,)``       gate, drain, source state rows
``prefactor``         ``(T, B)``      saturation current at full drive [A]
``vth``               ``(T, B)``      threshold voltage magnitude [V]
``nominal_ov``        ``(T, B)``      overdrive of the prefactor [V]
``alpha``             ``(T, B)``      alpha-power saturation index
``capacitance``       ``(I, B)``      lumped capacitance per net [F]
``rank_table``        ``(R, I+1)``    drive rows summed into each net
                                      and (last column) the supply
``pwl times/vals``    ``(B, S, P)``   padded source breakpoints
sub-step sizes        ``(K, G)``      ``0.0`` past a group's end;
                                      column ``b`` reads group
                                      ``column_group[b]``
``voltages``          ``(N, B)``      the integration state matrix
====================  ==============  ==================================

Kernel arrays are batch-minor: every row is one net or device across
the batch, so each slice the sub-step loop touches is contiguous.  State
rows are permuted (integrated nets, then driven nets, block by block,
then the rails), so the update, clamp and stimulus write act on views;
``block_rows`` undoes the permutation when waveforms are handed back
under their net names.  One gather through ``terminal_idx`` fetches
every terminal voltage, and one gather through ``rank_table`` lays out
every net's current contributions (see
:class:`repro.circuit.stepper.NumpyStepper`).

Per-case quantities (``prefactor`` .. ``capacitance``) carry the batch
axis, so corners may vary device parameters, loading, supply and
stimuli.  The rails are shared by every block; all other nets belong to
one block.  In a column, the devices of other blocks carry zero drive,
so they add exactly ``±0.0`` — to their own nets, which the column never
reports, and to the supply column, where ``±0.0`` leaves the sum
bit-identical (the ``+0.0`` padding argument of the rank table).

Each column steps with its own group's sub-step sizes.  A group whose
schedule ends before the longest one takes ``dt = 0.0`` steps after its
last sample; they add ``±0.0`` to a supply charge that is never
``-0.0``.  The stimulus "changed" mask is the union over columns, each
at its own times (holding its last value once its schedule ends), and
each group records its samples at its own interval boundaries.

Stimulus and measurement
------------------------
The stimulus is planned once per integration.  Each distinct stimulus —
a time-base group and the bytes of a padded PWL breakpoint row and level
row — is evaluated once over its group's sub-step start times, and its
values are scattered to every (column, source) pair that has it: a
characterization grid drives hundreds of pairs with a handful of
stimuli.  Only the sub-steps where some source's bit pattern changes
carry a row of source values.

Measurement reads waveforms a block at a time: :func:`waveform_block`
lines up the results of one group and block as the columns of a
``(samples, B)`` view of the kernel's sample block, and
:func:`first_crossings` finds every column's first crossing of a level
after its own ``after`` in one pass (a mask, ``argmax``, and the
interpolation only at the found segment).
:meth:`TransientResult.crossing_time` is its one-column call.

Stability sub-stepping rule
---------------------------
Output samples land every ``time_step``; internally each sample interval
is integrated in sub-steps of ``min(time_step, max(2 fs, stop_time /
40000))``.  A few tens of thousands of sub-steps per run keeps the
explicit integration stable for the RC time constants of gate-sized
circuits without making long runs unaffordable; the rule lives in
:func:`stability_substep`, which the scalar reference calls too.  The
batch engine enumerates the sub-step times of a run with NumPy, value
for value the reference's ``time += dt`` loop (``_substep_schedule``).

Batch-axis semantics
--------------------
The batch axis is first-class: :func:`run_transient_batch` takes a list of
:class:`SimulationCase` — of any topologies, each on its own time base
or on the call's — and returns one :class:`TransientResult` per case, in
order.

>>> from repro.circuit import (SimulationCase, build_inverter_chain,
...                            cmos_inverter, run_transient_batch,
...                            step_source)
>>> chain = build_inverter_chain(cmos_inverter(), stages=1, fanout=1, vdd=1.0)
>>> cases = [SimulationCase(chain,
...                         {"in": step_source(1.0, 2e-12, slew)},
...                         initial_conditions={"n1": 1.0})
...          for slew in (1e-12, 4e-12)]          # an input-slew sweep
>>> fast, slow = run_transient_batch(cases, stop_time=50e-12,
...                                  time_step=0.5e-12)
>>> bool(fast.voltage("n1")[-1] < 0.1 and slow.voltage("n1")[-1] < 0.1)
True
>>> bool(fast.crossing_time("n1", 0.5, rising=False) <
...      slow.crossing_time("n1", 0.5, rising=False))
True
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..devices.cnfet import CNFET
from ..devices.mosfet import MOSFET
from ..errors import SimulationError
from . import stepper
from .inverter import Inverter
from .netlist import GND, VDD, TransistorNetlist

#: Floor applied to node capacitances so the explicit integrator stays stable
#: even on nets with negligible extracted capacitance [F].
MINIMUM_NODE_CAPACITANCE = 1.0e-18

#: Smallest internal sub-step the stability rule will choose [s].
MINIMUM_SUBSTEP_S = 2.0e-15

#: Upper bound on the number of sub-steps per run implied by the rule.
SUBSTEP_BUDGET = 40000.0


def stability_substep(stop_time: float, time_step: float) -> float:
    """The shared sub-step rule of both engines.

    A few hundred sub-steps per output sample keeps the explicit
    integration stable for the RC time constants of gate-sized circuits
    without making long runs unaffordable:

    >>> stability_substep(stop_time=100e-12, time_step=1e-12) == 2.5e-15
    True
    >>> stability_substep(stop_time=4e-12, time_step=1e-12)  # 2 fs floor
    2e-15
    """
    return min(time_step, max(MINIMUM_SUBSTEP_S, stop_time / SUBSTEP_BUDGET))


@dataclass
class PiecewiseLinearSource:
    """A piecewise-linear voltage source (SPICE ``PWL`` equivalent)."""

    points: Sequence[Tuple[float, float]]

    def __post_init__(self):
        if not self.points:
            raise SimulationError("A PWL source needs at least one point")
        times = [t for t, _ in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise SimulationError("PWL time points must be non-decreasing")

    def value(self, time: float) -> float:
        points = list(self.points)
        if time <= points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if time <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        return points[-1][1]


def step_source(vdd: float, delay: float, rise_time: float,
                falling: bool = False) -> PiecewiseLinearSource:
    """A single rising (or falling) edge."""
    low, high = (vdd, 0.0) if falling else (0.0, vdd)
    return PiecewiseLinearSource([(0.0, low), (delay, low), (delay + rise_time, high)])


def pulse_source(vdd: float, delay: float, rise_time: float, width: float) -> PiecewiseLinearSource:
    """A single full pulse (rise, hold, fall)."""
    return PiecewiseLinearSource(
        [
            (0.0, 0.0),
            (delay, 0.0),
            (delay + rise_time, vdd),
            (delay + rise_time + width, vdd),
            (delay + 2 * rise_time + width, 0.0),
        ]
    )


def constant_source(level: float) -> PiecewiseLinearSource:
    """A DC level (used to hold side inputs during characterisation)."""
    return PiecewiseLinearSource([(0.0, level)])


def first_crossings(time: np.ndarray, block: np.ndarray, level,
                    rising: Optional[bool] = None, after=0.0) -> np.ndarray:
    """Each column's first crossing of ``level`` at or after its own
    ``after``: ``(B,)`` for waveforms ``block`` of shape ``(samples, B)``
    sampled at ``time``.

    ``level`` and ``after`` are scalars or one value per column.  A
    segment crosses upward when ``previous < level <= current`` and
    downward when ``previous > level >= current``; ``rising`` picks one
    direction (``None``: either).  A column's candidates are its crossing
    segments that end at or after its ``after``: a mask, then ``argmax``
    for the first one, and the linear interpolation only there.  A
    segment straddling ``after`` may cross before it; a linear segment
    crosses a level at most once, so that crossing is outside the window
    and the column moves on to its next candidate.  Raises
    :class:`SimulationError` when a column has no crossing in its window.
    """
    width = block.shape[1]
    if len(time) < 2:
        raise SimulationError("a crossing needs at least two samples")
    level = np.broadcast_to(np.asarray(level, dtype=float), (width,))
    after = np.broadcast_to(np.asarray(after, dtype=float), (width,))
    # Segments ending before ``after`` are out of the window; those
    # before the first segment that ends at or after the earliest
    # ``after`` are out of every column's, so the mask starts there.
    first = int(np.argmax(time[1:] >= after.min(initial=np.inf)))
    previous, current = block[first:-1], block[first + 1:]
    if rising is None:
        crossed = ((previous < level) & (level <= current)) | (
            (previous > level) & (level >= current))
    elif rising:
        crossed = previous < level
        crossed &= level <= current
    else:
        crossed = previous > level
        crossed &= level >= current
    crossed &= time[first + 1:, None] >= after
    segments = np.arange(len(crossed))[:, None]
    crossings = np.empty(width)
    pending = np.arange(width)
    while pending.size:
        index = crossed.argmax(axis=0)
        missing = ~crossed[index, np.arange(pending.size)]
        if missing.any():
            raise SimulationError(
                f"columns {pending[missing].tolist()} never cross "
                f"{level[pending[missing]].tolist()} V after "
                f"{after[pending[missing]].tolist()}")
        # A strict crossing implies previous != current, so the
        # denominator is never zero.
        start, end = time[first + index], time[first + index + 1]
        before, past = previous[index, pending], current[index, pending]
        fraction = (level[pending] - before) / (past - before)
        found = start + fraction * (end - start)
        crossings[pending] = found
        early = found < after[pending]
        pending = pending[early]
        crossed = crossed[:, early] & (segments > index[early])
    return crossings


def waveform_block(results: Sequence[TransientResult],
                   net: str) -> np.ndarray:
    """The ``net`` waveforms of ``results`` (of one time axis) as the
    columns of one ``(samples, len(results))`` array.

    The kernel hands back the cases of one group and block as adjacent
    columns of one sample block, so their waveforms come back as a
    read-only view of that block, without a copy; other waveforms are
    stacked.
    """
    columns = [result.voltage(net) for result in results]
    head = columns[0]
    if head.base is not None and all(
            column.base is head.base and column.strides == head.strides
            and column.shape == head.shape and column.dtype == head.dtype
            and column.ctypes.data == head.ctypes.data + k * head.itemsize
            for k, column in enumerate(columns)):
        return np.lib.stride_tricks.as_strided(
            head, (len(head), len(columns)),
            (head.strides[0], head.itemsize), writeable=False)
    return np.stack(columns, axis=1)


@dataclass
class TransientResult:
    """Waveforms of a transient run."""

    time: np.ndarray
    waveforms: Dict[str, np.ndarray]
    supply_charge: float      # total charge delivered by Vdd [C]
    vdd: float

    def voltage(self, net: str) -> np.ndarray:
        try:
            return self.waveforms[net]
        except KeyError:
            raise SimulationError(
                f"No waveform recorded for net {net!r}; available: "
                f"{sorted(self.waveforms)}"
            ) from None

    def crossing_time(self, net: str, level: float, rising: Optional[bool] = None,
                      after: float = 0.0) -> float:
        """First time the net crosses ``level`` (optionally in a specific
        direction) at or after ``after``: :func:`first_crossings` on this
        one waveform.

        A crossing inside a segment that straddles ``after`` only counts
        when the interpolated crossing instant itself is at or after
        ``after``, so the returned time is never earlier than ``after``
        (``propagation_delay`` relies on this).
        """
        voltages = self.voltage(net)
        try:
            return first_crossings(self.time, voltages[:, None], level,
                                   rising, after)[0]
        except SimulationError:
            raise SimulationError(
                f"Net {net!r} never crosses {level} V after {after}"
            ) from None

    def propagation_delay(self, input_net: str, output_net: str,
                          vdd: Optional[float] = None) -> float:
        """50 %-to-50 % propagation delay between two nets."""
        vdd = self.vdd if vdd is None else vdd
        level = vdd / 2.0
        t_in = self.crossing_time(input_net, level)
        t_out = self.crossing_time(output_net, level, after=t_in)
        return t_out - t_in

    @property
    def supply_energy(self) -> float:
        """Energy drawn from the supply during the run [J]."""
        return self.supply_charge * self.vdd


# ---------------------------------------------------------------------------
# Batch engine: cases, compilation, vectorized integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationCase:
    """One corner of a batch transient run.

    A case bundles a netlist (which carries the device instances, loading
    and supply of that corner), the stimulus of every driven net,
    optional initial conditions and an optional time base
    ``(stop_time, time_step)``; ``None`` takes the time base of the call.
    Cases of one batch are free to differ in all of it: cases that share
    a *topology* — net names and order, device connectivity and
    polarity, and the set of driven nets — form one block of the packed
    state, and cases that share a time base form one sampling group (see
    :class:`CompiledTransientBatch`).
    """

    netlist: TransistorNetlist
    sources: Mapping[str, PiecewiseLinearSource]
    initial_conditions: Optional[Mapping[str, float]] = None
    time_base: Optional[Tuple[float, float]] = None


def _device_power_law(device) -> Tuple[float, float, float, float]:
    """Lower one compact model to ``(prefactor, vth, nominal_ov, alpha)``.

    ``prefactor`` is the saturation current at nominal overdrive, built
    with the same association order as the scalar ``ids`` so the batch
    product ``prefactor * ratio ** alpha`` is bit-identical to the loop
    engine's evaluation.
    """
    params = device.parameters
    if isinstance(device, CNFET):
        prefactor = (
            device.num_tubes
            * params.on_current_per_tube
            * (device.screening ** params.current_screening_power)
        )
    elif isinstance(device, MOSFET):
        prefactor = params.saturation_current_per_um * device.width_um
    else:  # pragma: no cover - TransistorInstance already validates this
        raise SimulationError(
            f"Unsupported device type {type(device).__name__}"
        )
    nominal_ov = params.nominal_vdd - params.threshold_voltage
    return prefactor, params.threshold_voltage, nominal_ov, params.alpha


#: ``(prefactor, vth, nominal_ov, alpha)`` of a device in the column of a
#: case from another block: no drive, and a unit overdrive scale and index
#: so every lane of the power law stays finite and the device current is
#: an exact ``±0.0``.
_ABSENT_DEVICE = (0.0, 0.0, 1.0, 1.0)


def _substep_schedule(stop_time: float, time_step: float):
    """``(sample times, sub-step start times, sub-step sizes, sample
    boundaries)`` of one time base; sample ``i`` is taken before
    sub-step ``boundaries[i]``.

    The schedule is the reference's loop, value for value: each sample
    interval ``[start, end)`` steps ``time += dt`` with ``dt =
    min(substep, end - time)`` while ``time < end - 1e-21``.  Sources are
    read at the *start* of each sub-step, and the sample recorded at a
    boundary still holds the source value of the previous sub-step.

    It is built an interval per row: ``np.add.accumulate`` over ``[start,
    substep, substep, ...]`` is sequential, so it gives the loop's times
    for as long as every step is full.  A row ends at its first partial
    step (``end - time < substep``).  That step lands on ``end`` exactly
    (Sterbenz: ``time`` is within a factor two of ``end``, so ``end -
    time`` is exact), so the loop stops after it, and the accumulated
    clock, a full step on, is past ``end`` too.  A partial step that
    would stop short of ``end``, or a row that fills every column,
    raises :class:`SimulationError`.
    """
    sample_count = int(math.ceil(stop_time / time_step)) + 1
    times = np.linspace(0.0, stop_time, sample_count)
    substep = stability_substep(stop_time, time_step)
    starts, ends = times[:-1, None], times[1:, None]
    longest = float(np.max(ends - starts, initial=0.0))
    clock = np.full((len(starts), math.ceil(longest / substep) + 2), substep)
    clock[:, 0] = times[:-1]
    np.add.accumulate(clock, axis=1, out=clock)
    sizes = np.minimum(substep, ends - clock)
    taken = clock < ends - 1e-21
    counts = np.count_nonzero(taken, axis=1)
    if np.any(counts == clock.shape[1]) or np.any(
            taken & (sizes < substep) & (clock + sizes < ends - 1e-21)):
        raise SimulationError(
            f"the sub-step schedule of ({stop_time!r}, {time_step!r}) "
            f"does not end on its sample times")
    return (times, clock[taken], sizes[taken],
            np.concatenate(([0], np.cumsum(counts))))


def _state_key(block: int, net: str):
    """State-row key of a net: the rails are shared by every block, any
    other net belongs to its block alone."""
    return net if net in (VDD, GND) else (block, net)


class CompiledTransientBatch:
    """A batch of cases lowered to one set of structure arrays.

    Compile once, integrate many times: the constructor performs all
    name-based work (topology blocks, net indexing, terminal lowering,
    capacitance extraction, PWL padding); :meth:`integrate` then runs the
    explicit sub-stepped integration purely on arrays.
    """

    def __init__(self, cases: Sequence[SimulationCase]):
        if not cases:
            raise SimulationError("A batch needs at least one SimulationCase")
        self.cases = list(cases)
        self._validate_cases()

        # -- blocks and groups (see "Precompiled array layout") -----------
        # Cases of one topology share a block; cases of one time base
        # share a group, whose columns are contiguous.
        block_of: Dict[tuple, int] = {}
        group_of: Dict[Optional[Tuple[float, float]], int] = {}
        representatives: List[SimulationCase] = []
        case_block: List[int] = []
        case_group: List[int] = []
        for case in self.cases:
            key = (
                tuple(case.netlist.nets()),
                tuple((t.gate, t.drain, t.source, t.polarity)
                      for t in case.netlist.transistors),
                frozenset(case.sources),
            )
            if key not in block_of:
                block_of[key] = len(representatives)
                representatives.append(case)
            case_block.append(block_of[key])
            base = None if case.time_base is None else tuple(case.time_base)
            case_group.append(group_of.setdefault(base, len(group_of)))
        #: Case index of every column: the cases, stably sorted by group.
        self.columns: List[int] = sorted(range(len(self.cases)),
                                         key=case_group.__getitem__)
        self.column_block = [case_block[i] for i in self.columns]
        #: Time-base group of every column, ``(B,)`` intp.
        self.column_group = np.array(case_group, dtype=np.intp)[self.columns]
        self.group_bases = list(group_of)
        edges = np.searchsorted(self.column_group,
                                np.arange(len(group_of) + 1)).tolist()
        self.group_columns: List[Tuple[int, int]] = list(zip(edges, edges[1:]))
        batch = self.batch_size = len(self.cases)

        # -- state rows ---------------------------------------------------
        # Integrated nets, then driven nets (block by block), then the
        # shared rails; ``block_rows[b][k]`` is the state row of
        # ``block_nets[b][k]``.  A source may drive a net no device
        # references (the reference simply records its waveform); such
        # nets get state rows too so the engines stay bit-identical.
        self.block_nets: List[List[str]] = []
        integrated: List[Tuple[int, str]] = []
        driven: List[Tuple[int, str]] = []
        self.source_spans: List[Tuple[int, int]] = []
        for block, case in enumerate(representatives):
            topology = case.netlist.nets()
            sources = list(case.sources)
            self.block_nets.append(
                topology + [net for net in sources if net not in topology])
            integrated += [(block, net) for net in topology
                           if net not in (VDD, GND) and net not in sources]
            self.source_spans.append((len(driven), len(driven) + len(sources)))
            driven += [(block, net) for net in sources]
        self.nodes = len(integrated)
        self.source_keys = driven
        layout = integrated + driven + [VDD, GND]
        row = {key: i for i, key in enumerate(layout)}
        self.block_rows: List[List[int]] = [
            [row[_state_key(block, net)] for net in nets]
            for block, nets in enumerate(self.block_nets)
        ]

        # -- terminals ----------------------------------------------------
        # Kernel device order puts n-type devices first (block by block),
        # so the gate overdrive of each polarity is one subtraction on a
        # view.  ``terminal_idx`` lists the gate, then drain, then source
        # row of every device: one gather fetches all terminal voltages.
        devices = [(block, k, t)
                   for block, case in enumerate(representatives)
                   for k, t in enumerate(case.netlist.transistors)]
        order = sorted(range(len(devices)),
                       key=lambda d: devices[d][2].polarity != "n")
        position = {devices[d][:2]: p for p, d in enumerate(order)}
        self.n_devices = sum(t.polarity == "n" for _, _, t in devices)
        self.terminal_idx = np.array(
            [row[_state_key(devices[d][0], devices[d][2].gate)]
             for d in order]
            + [row[_state_key(devices[d][0], devices[d][2].drain)]
               for d in order]
            + [row[_state_key(devices[d][0], devices[d][2].source)]
               for d in order],
            dtype=np.intp,
        )

        # -- per-column device parameters (T, B), kernel order ------------
        # A device of another block gets ``_ABSENT_DEVICE`` in a column.
        params = np.empty((len(devices), batch, 4))
        params[...] = _ABSENT_DEVICE
        for column, case_i in enumerate(self.columns):
            block = self.column_block[column]
            for k, t in enumerate(self.cases[case_i].netlist.transistors):
                params[position[block, k], column] = \
                    _device_power_law(t.device)
        self.prefactor, self.vth, self.nominal_ov, self.alpha = (
            np.ascontiguousarray(params[:, :, field_i]) for field_i in range(4)
        )

        # -- integrated-net capacitance (I, B) ----------------------------
        # Another block's nets only ever receive ``±0.0`` in a column, so
        # any positive capacitance keeps them exactly where they started.
        self.capacitance = np.ones((self.nodes, batch))
        for column, case_i in enumerate(self.columns):
            netlist = self.cases[case_i].netlist
            block = self.column_block[column]
            for node, (owner, net) in enumerate(integrated):
                if owner == block:
                    self.capacitance[node, column] = max(
                        netlist.node_capacitance(net),
                        MINIMUM_NODE_CAPACITANCE)

        # -- accumulation table -------------------------------------------
        # Each sub-step the kernel fills the drive rows ``[i_drain |
        # -i_drain | +0.0]`` (``2T + 1`` rows).  The reference visits
        # device terminals in slot order (device by device, drain then
        # source) and folds each net's current, and the supply current,
        # with sequential ``+=`` from ``0.0``.  Column ``j`` of
        # ``rank_table`` lists, in that order, the drive rows of integrated
        # net ``j``'s contributions (a drain adds -i_drain, a source
        # +i_drain); column ``I`` does the same for the supply (a drain on
        # Vdd adds +i_drain, a source on Vdd -i_drain), block after block.
        # Row ``r`` holds every net's (r+1)-th contribution; shorter
        # columns are padded with the ``+0.0`` drive row.
        target = {key: j for j, key in enumerate(integrated)}
        contributions: List[List[int]] = [[] for _ in range(len(target) + 1)]
        supply = contributions[-1]
        for block, case in enumerate(representatives):
            for k, t in enumerate(case.netlist.transistors):
                forward = position[block, k]
                reverse = len(devices) + forward
                drain = _state_key(block, t.drain)
                source = _state_key(block, t.source)
                if drain in target:
                    contributions[target[drain]].append(reverse)
                if source in target:
                    contributions[target[source]].append(forward)
                if t.drain == VDD:
                    supply.append(forward)
                if t.source == VDD:
                    supply.append(reverse)
        ranks = max(1, max(len(slots) for slots in contributions))
        self.rank_table = np.full((ranks, len(contributions)),
                                  2 * len(devices), dtype=np.intp)
        for j, slots in enumerate(contributions):
            self.rank_table[:len(slots), j] = slots

        # -- per-column rails, clamp bounds, initial state ----------------
        column_cases = [self.cases[i] for i in self.columns]
        self.vdd = np.array([case.netlist.vdd for case in column_cases])
        self.clamp_low = np.array(
            [-0.1 * case.netlist.vdd for case in column_cases]
        )[None, :]
        self.clamp_high = np.array(
            [1.1 * case.netlist.vdd for case in column_cases]
        )[None, :]

        self.initial_voltages = np.zeros((len(layout), batch))
        self.initial_voltages[row[VDD]] = self.vdd
        for column, case in enumerate(column_cases):
            block = self.column_block[column]
            conditions = dict(case.initial_conditions or {})
            for node, (owner, net) in enumerate(integrated):
                if owner == block:
                    self.initial_voltages[node, column] = \
                        conditions.get(net, 0.0)
            for source_i in range(*self.source_spans[block]):
                net = self.source_keys[source_i][1]
                self.initial_voltages[self.nodes + source_i, column] = \
                    case.sources[net].value(0.0)

        # -- padded PWL tables (B, S, P) ----------------------------------
        # Sources of another block stay all padding (``t = inf``, value
        # 0.0), which evaluates to a constant 0.0.
        longest = max([1] + [len(source.points) for case in column_cases
                             for source in case.sources.values()])
        shape = (batch, len(driven), longest)
        self.pwl_times = np.full(shape, np.inf)
        self.pwl_values = np.zeros(shape)
        for column, case in enumerate(column_cases):
            for source_i in range(*self.source_spans[self.column_block[column]]):
                points = list(case.sources[self.source_keys[source_i][1]].points)
                for point_i, (t, v) in enumerate(points):
                    self.pwl_times[column, source_i, point_i] = t
                    self.pwl_values[column, source_i, point_i] = v
                # Pad with the final point: past it, the lookup lands on a
                # zero-length segment and returns the last value as is
                # (the "hold last value" rule, ``-0.0`` included).
                self.pwl_times[column, source_i, len(points):] = points[-1][0]
                self.pwl_values[column, source_i, len(points):] = points[-1][1]

    # -- validation -------------------------------------------------------

    def _validate_cases(self) -> None:
        for case in self.cases:
            missing = [
                net for net in case.netlist.inputs if net not in case.sources
            ]
            if missing:
                raise SimulationError(
                    f"No source provided for input nets {missing}"
                )
            rails = [net for net in case.sources if net in (VDD, GND)]
            if rails:
                raise SimulationError(
                    f"Sources may not drive the supply rails {rails}"
                )
            if case.time_base is not None and min(case.time_base) <= 0:
                raise SimulationError(
                    "stop_time and time_step must be positive"
                )

    # -- stimulus ---------------------------------------------------------

    def _evaluate_pwl(self, column: int, source_i: int,
                      times: np.ndarray) -> np.ndarray:
        """One source's values at the given instants: ``(len(times),)``.

        Vectorized mirror of :meth:`PiecewiseLinearSource.value`: locate
        the first breakpoint at or after ``t`` (``searchsorted`` over the
        padded breakpoints) and interpolate with the same expression;
        ``t`` past the last breakpoint (padded with copies of the last
        point) or at or before the first one resolves to that point's
        value through the degenerate-segment branch.
        """
        longest = self.pwl_times.shape[-1]
        breakpoints = self.pwl_times[column, source_i]
        levels = self.pwl_values[column, source_i]
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.searchsorted(breakpoints, times, side="left")
            hi = np.minimum(upper, longest - 1)
            lo = np.maximum(upper - 1, 0)
            t0, t1 = breakpoints[lo], breakpoints[hi]
            v0, v1 = levels[lo], levels[hi]
            interpolated = v0 + (v1 - v0) * (times - t0) / (t1 - t0)
            return np.where(t1 == t0, v1, interpolated)

    @functools.cached_property
    def _stimuli(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Each distinct stimulus once: ``(group, columns, sources)``.

        A stimulus is a group and the bytes of a padded breakpoint row and
        level row (so a ``-0.0`` level and a ``+0.0`` one are distinct);
        ``columns`` and ``sources`` list every (column, source) pair that
        has it, the first pair representing it.  A characterization grid
        drives hundreds of pairs with a handful of stimuli.
        """
        pairs: Dict[tuple, List[Tuple[int, int]]] = {}
        for column, group in enumerate(self.column_group):
            block = self.column_block[column]
            for source_i in range(*self.source_spans[block]):
                key = (group, self.pwl_times[column, source_i].tobytes(),
                       self.pwl_values[column, source_i].tobytes())
                pairs.setdefault(key, []).append((column, source_i))
        return [(key[0], *np.array(members, dtype=np.intp).T)
                for key, members in pairs.items()]

    def _source_values(self, group_times: Sequence[np.ndarray]) -> np.ndarray:
        """Every source of every column at its group's instants: ``(K, B,
        S)`` for ``group_times[g]`` of length ``K``.

        Each distinct stimulus is evaluated once and scattered to every
        (column, source) pair that has it; sources of another block read
        0.0.
        """
        batch, sources, _ = self.pwl_times.shape
        values = np.zeros((len(group_times[0]), batch, sources))
        for group, columns, source_is in self._stimuli:
            values[:, columns, source_is] = self._evaluate_pwl(
                columns[0], source_is[0], group_times[group])[:, None]
        return values

    def _compressed_source_schedule(
        self, step_times: Sequence[np.ndarray], steps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Source values for only the sub-steps where any source changes.

        ``step_times[g]`` holds the start time of every sub-step of group
        ``g``; past its end a column holds its last value.  Returns
        ``(changed, values)``: a boolean per sub-step — the union over
        stimuli, each at its group's times — and a ``(changed.sum(), B,
        S)`` value matrix for exactly those steps.  Each distinct stimulus
        is evaluated once (:attr:`_stimuli`).  Stimuli are flat outside
        their PWL edges, so this keeps the precomputed stimulus table a
        few edge-windows long instead of one row per sub-step (which at
        40000 sub-steps x wide batches costs hundreds of MB).
        """
        changed = np.zeros(steps, dtype=bool)
        changed[0] = True
        for group, columns, source_is in self._stimuli:
            values = self._evaluate_pwl(columns[0], source_is[0],
                                        step_times[group])
            # Compared as bit patterns: a step from -0.0 to +0.0 is a
            # change the reference writes into the state.
            bits = values.view(np.uint64)
            changed[1:len(values)] |= bits[1:] != bits[:-1]
        steps_changed = np.flatnonzero(changed)
        return changed, self._source_values([
            times[np.minimum(steps_changed, len(times) - 1)]
            for times in step_times
        ])

    # -- integration ------------------------------------------------------

    def integrate(self, stop_time: float, time_step: float) -> List[TransientResult]:
        """Integrate every case, each on its own time base (``stop_time``
        and ``time_step`` are the time base of cases that carry none)."""
        if stop_time <= 0 or time_step <= 0:
            raise SimulationError("stop_time and time_step must be positive")
        sample_times, boundaries, step_sizes, changed, source_rows = \
            self._schedule(stop_time, time_step)
        steps = len(step_sizes)

        # Imported here: the obs package reaches the runtime layer, which
        # sits above this engine.
        from ..obs import trace as obs_trace

        batch = self.batch_size
        stepper_type = stepper.resolve_stepper()
        with obs_trace.span("transient.integrate", batch=batch,
                            nets=len(self.initial_voltages),
                            devices=self.prefactor.shape[0],
                            substeps=steps, stepper=stepper_type.name):
            waveforms, supply_charge = self._march(
                stepper_type, boundaries, step_sizes, changed, source_rows)
            obs_trace.add("transient.corner_steps", batch * steps)

        results: List[Optional[TransientResult]] = [None] * batch
        for column, case_i in enumerate(self.columns):
            group, block = self.column_group[column], self.column_block[column]
            local = column - self.group_columns[group][0]
            results[case_i] = TransientResult(
                time=sample_times[group],
                waveforms={
                    net: waveforms[group][:, row, local]
                    for net, row in zip(self.block_nets[block],
                                        self.block_rows[block])
                },
                supply_charge=float(supply_charge[column]),
                vdd=float(self.vdd[column]),
            )
        return results

    def _schedule(self, stop_time: float, time_step: float):
        """The deterministic integration plan: ``(sample times and sample
        boundaries per group, sub-step sizes, changed, source rows)``.

        The sub-step schedules are enumerated (and every PWL source
        evaluated over them) once, up front.  Each group records its
        samples at its own interval boundaries.  A group whose schedule
        ends early takes ``dt = 0.0`` steps after its last sample.  The
        sub-step sizes are one ``(K, G)`` table, a column per group: each
        column's ``i * dt`` is the IEEE product the reference forms with
        its own scalar ``dt``.  ``changed`` is a ``(K,)`` mask and the
        source rows a ``(changed.sum(), S, B)`` table of the driven state
        rows to write before those sub-steps.
        """
        sample_times: List[np.ndarray] = []
        step_times: List[np.ndarray] = []
        sizes: List[np.ndarray] = []
        boundaries: List[np.ndarray] = []
        for base in self.group_bases:
            times, starts, dts, bounds = _substep_schedule(
                *(base or (stop_time, time_step)))
            sample_times.append(times)
            step_times.append(starts)
            sizes.append(dts)
            boundaries.append(bounds)
        step_sizes = np.zeros((max(map(len, sizes)), len(sizes)))
        for group, dts in enumerate(sizes):
            step_sizes[:len(dts), group] = dts
        del sizes                  # not needed past here: keep the peak low
        steps = len(step_sizes)
        changed = np.zeros(steps, dtype=bool)
        source_rows = np.empty((0, len(self.source_keys), self.batch_size))
        if self.source_keys and steps:
            changed, values = self._compressed_source_schedule(step_times,
                                                               steps)
            source_rows = np.ascontiguousarray(values.transpose(0, 2, 1))
        return sample_times, boundaries, step_sizes, changed, source_rows

    def _march(self, stepper_type, boundaries: List[np.ndarray],
               step_sizes: np.ndarray, changed: np.ndarray,
               source_rows: np.ndarray
               ) -> Tuple[List[np.ndarray], np.ndarray]:
        """The sample loop: ``(waveforms per group (samples, N, width),
        supply charge per column)``.

        Group ``g`` records sample ``i`` before sub-step
        ``boundaries[g][i]``.  Waveform rows are in state-row order (see
        ``block_rows``).  The plan is every sample's ``(mark, group,
        sample)``, sorted by mark, three ``intp`` columns computed up front
        (so it costs no Python object per sample).  One ``march(plan,
        waveforms)`` of ``stepper_type`` (see :mod:`repro.circuit.stepper`)
        walks it: at each new mark it runs the sub-steps up to the mark,
        each of which writes the stimulus rows where a source changed and
        advances the state and the supply charge by the ``step_sizes``
        table, and then it copies the mark's samples into the blocks.
        """
        voltages = self.initial_voltages.copy()
        waveforms = [np.empty((len(bounds), len(voltages), stop - start))
                     for bounds, (start, stop)
                     in zip(boundaries, self.group_columns)]
        supply_charge = np.zeros(self.batch_size)
        marks = np.concatenate(boundaries)
        groups = np.repeat(np.arange(len(boundaries)),
                           [len(bounds) for bounds in boundaries])
        samples = np.concatenate([np.arange(len(bounds))
                                  for bounds in boundaries])
        order = np.argsort(marks, kind="stable")
        plan = tuple(column[order].astype(np.intp, copy=False)
                     for column in (marks, groups, samples))
        stepper_type(self, voltages, supply_charge, step_sizes, changed,
                     source_rows).march(plan, waveforms)
        return waveforms, supply_charge


def run_transient_batch(cases: Sequence[SimulationCase], stop_time: float,
                        time_step: float) -> List[TransientResult]:
    """Simulate many corners in one vectorized integration.

    Cases may differ in topology and time base: each case integrates on
    its own ``time_base``, or on ``(stop_time, time_step)`` when it
    carries none, and keeps its own device parameters, loading, supply,
    stimuli and initial conditions.  Returns one :class:`TransientResult`
    per case, in order, bit-identical to running each case through the
    scalar reference integrator (``tests/reference.py``) on its time base.
    """
    return CompiledTransientBatch(cases).integrate(stop_time, time_step)


class TransientSimulator:
    """Explicit nodal transient solver for a :class:`TransistorNetlist`.

    ``run`` integrates one case on the batch engine (a batch of one).
    """

    def __init__(self, netlist: TransistorNetlist,
                 sources: Mapping[str, PiecewiseLinearSource],
                 initial_conditions: Optional[Mapping[str, float]] = None):
        self.netlist = netlist
        self.sources = dict(sources)
        missing = [net for net in netlist.inputs if net not in self.sources]
        if missing:
            raise SimulationError(f"No source provided for input nets {missing}")
        self.initial_conditions = dict(initial_conditions or {})

    def as_case(self) -> SimulationCase:
        """This simulator's configuration as a batchable case."""
        return SimulationCase(
            netlist=self.netlist,
            sources=self.sources,
            initial_conditions=self.initial_conditions,
        )

    def run(self, stop_time: float, time_step: float) -> TransientResult:
        """Integrate from 0 to ``stop_time`` with output samples every
        ``time_step`` (internally sub-stepped for stability)."""
        return run_transient_batch([self.as_case()], stop_time, time_step)[0]


# ---------------------------------------------------------------------------
# The FO4 inverter chain (measured by repro.circuit.fo4)
# ---------------------------------------------------------------------------

def build_inverter_chain(inverter: Inverter, stages: int, fanout: int,
                         vdd: float) -> TransistorNetlist:
    """A chain of identical inverters where each stage additionally drives
    ``fanout - 1`` copies of its own input capacitance (so the loading seen
    by every stage is FO-``fanout``)."""
    netlist = TransistorNetlist(f"fo{fanout}_chain", vdd=vdd)
    extra_load = (fanout - 1) * inverter.input_capacitance()
    previous_net = "in"
    for stage in range(stages):
        out_net = f"n{stage + 1}"
        netlist.add_transistor(
            f"MN{stage}", inverter.pull_down, gate=previous_net,
            drain=out_net, source=GND,
        )
        netlist.add_transistor(
            f"MP{stage}", inverter.pull_up, gate=previous_net,
            drain=out_net, source=VDD,
        )
        if extra_load > 0:
            netlist.add_capacitor(f"CL{stage}", out_net, extra_load)
        previous_net = out_net
    netlist.declare_io(["in"], [previous_net])
    return netlist
