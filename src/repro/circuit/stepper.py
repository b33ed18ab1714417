"""The transient sub-step loop: one interface, two implementations.

:meth:`CompiledTransientBatch._march <repro.circuit.simulator.
CompiledTransientBatch._march>` is the one driver: it owns the schedule,
the sample plan and the waveform blocks.  A stepper is built with the
batch's ``(K, G)`` sub-step size table and its stimulus (the ``(K,)``
``changed`` mask and the source rows of the steps where a source
changes), and the driver calls ``stepper.march(plan, waveforms)`` once
per integration.  The plan is three ``(P,)`` ``intp`` columns ``(mark,
group, sample)``, sorted by mark.  At each new mark the stepper runs the
sub-steps up to it: each writes the stimulus rows where a source
changed, then advances the state matrix and the supply charge by one
explicit-Euler step, column ``b`` by ``step_sizes[i, column_group[b]]``.
Then it copies the state rows of the group's columns into row ``sample``
of ``waveforms[group]``.  Two steppers implement that call, byte for
byte alike:

* :class:`NumpyStepper` — the walk in Python, with a loop of about 34
  NumPy ufunc calls per sub-step.  It is the fallback and the oracle the
  compiled stepper is tested against.
* :class:`CStepper` — the same walk in ``_step.c``, loaded through
  :mod:`ctypes`: one C call per integration.  ``power`` is NumPy's own
  float64 inner loop, which the C code calls by pointer, because NumPy's
  SIMD ``power`` loop does not round like libm's ``pow``; every other
  operation of a sub-step is an IEEE basic operation that C, built
  without contraction or fast-math, reproduces bit for bit.

:func:`resolve_stepper` picks :class:`CStepper` when its library builds
and loads and :func:`power_loop` binds NumPy's loop, else
:class:`NumpyStepper`.  The library is built on the first integration of
a process, never at import, into the per-user cache directory
:func:`cache_dir`.  Its file name is keyed by the SHA-256 of the C
source, the compiler's ``--version`` output and the flags, and it is
published by temp file and rename, so two processes may build it at
once.  Each file ends in the SHA-256 of the library before it: a
truncated or corrupt file is rebuilt, never loaded.  A build also
deletes what killed builders and other sources left in that directory
(:data:`STALE_TEMP_S`, :data:`STALE_LIBRARY_S`).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..errors import SimulationError

#: The compiled stepper's source, beside this module.
C_SOURCE = Path(__file__).with_name("_step.c")

#: Compiler flags of the library.  ``-O3`` vectorizes the lane loops of
#: ``_step.c``; ``-ffp-contract=off`` and ``-fno-fast-math`` are part of
#: the bit-identity contract (see the header of ``_step.c``); no
#: ``-march``, so the library runs on any host of the compiler's default
#: target.
CFLAGS = ("-O3", "-fPIC", "-fno-fast-math", "-ffp-contract=off", "-shared")

#: Compiler names tried on ``PATH``, in order.
COMPILERS = ("cc", "gcc")

#: Bytes of the SHA-256 trailer that ends every cached library.
_DIGEST_BYTES = 32

#: A build deletes ``.tmp-*`` files of :func:`cache_dir` older than this
#: [s]: what a killed builder left behind.
STALE_TEMP_S = 3600.0

#: A build deletes libraries of other keys not modified for this long
#: [s]: what an edited ``_step.c`` or an upgraded compiler left behind.
STALE_LIBRARY_S = 7 * 24 * 3600.0


def _source_index(batch, step_sizes: np.ndarray, changed: np.ndarray,
                  source_rows: np.ndarray) -> np.ndarray:
    """The ``(K,)`` row of ``source_rows`` written before each sub-step,
    ``-1`` where no source changed, after checking the stimulus against
    the step table and the batch."""
    sources = (len(batch.source_keys), batch.batch_size)
    if (changed.shape != step_sizes.shape[:1] or changed.dtype != bool
            or source_rows.shape != (np.count_nonzero(changed), *sources)):
        raise SimulationError(
            f"stimulus must be a (K,) changed mask and a (changed, S, B) "
            f"row table, got {changed.shape} {changed.dtype} and "
            f"{source_rows.shape}")
    index = np.cumsum(changed, dtype=np.intp)
    index -= 1
    index[~changed] = -1
    return index


class NumpyStepper:
    """The sub-step loop in Python over NumPy ufuncs and buffers
    allocated once.

    ``march`` walks the plan in Python: one ``advance`` over the
    sub-steps up to each new mark, then one copy of the group's state
    columns per sample.  A sub-step ``i`` is the stimulus copy when a
    source changed, one terminal gather, the device currents (an elementwise
    mirror of ``channel_current`` in ``tests/reference.py``), one
    rank-table gather, one add per rank, the gather of sub-step ``i``'s
    size for every column, and the ``(current*dt)/C`` update and rail
    clamp on the integrated-net view of ``voltages``.
    """

    name = "numpy"

    def __init__(self, batch, voltages: np.ndarray,
                 supply_charge: np.ndarray, step_sizes: np.ndarray,
                 changed: np.ndarray, source_rows: np.ndarray):
        source_row = _source_index(batch, step_sizes, changed, source_rows)
        devices, width = batch.prefactor.shape
        nodes = batch.nodes
        terminals = np.empty((batch.terminal_idx.size, width))
        drive = np.zeros((2 * devices + 1, width))   # [i | -i | +0.0]
        signed, negated = drive[:devices], drive[devices:2 * devices]
        ranks, columns = batch.rank_table.shape
        table = np.empty((ranks * columns, width))
        first_rank, *later_ranks = [
            table[r * columns:(r + 1) * columns] for r in range(ranks)
        ]
        # The accumulator starts as rank 0 + 0.0 and then adds each later
        # rank in order, exactly the reference's ``0.0 + c1 + c2 + ...``
        # for every net and the supply.  The +0.0 padding is exact: an
        # accumulator that starts from +0.0 is never -0.0 (round-to-nearest
        # gives -0.0 only for -0.0 + -0.0), and x + 0.0 == x for every
        # other x, so padded ranks leave every sum bit-identical.  The
        # same argument covers the ``±0.0`` a device of another block
        # adds to the supply column, and the ``±0.0`` a padding step
        # (``dt = 0.0``) adds to the supply charge, which starts at +0.0.
        currents = np.empty((columns, width))
        node_currents, supply_current = currents[:nodes], currents[nodes]
        node_v = voltages[:nodes]
        capacitance, low, high = (batch.capacitance, batch.clamp_low,
                                  batch.clamp_high)
        gather_terminals = functools.partial(
            voltages.take, batch.terminal_idx, 0, terminals, "clip")
        gather_ranks = functools.partial(
            drive.take, batch.rank_table.ravel(), 0, table, "clip")
        device_currents = self._current_kernel(batch, terminals, signed)
        column_group = batch.column_group
        driven_v = voltages[nodes:nodes + len(batch.source_keys)]
        add, multiply, divide, copyto = (np.add, np.multiply, np.divide,
                                         np.copyto)
        maximum, minimum, negative = np.maximum, np.minimum, np.negative

        def step(i: int) -> None:
            gather_terminals()
            device_currents()
            negative(signed, out=negated)
            gather_ranks()
            add(first_rank, 0.0, out=currents)
            for rank in later_ranks:
                add(currents, rank, out=currents)
            multiply(currents, step_sizes[i].take(column_group),
                     out=currents)
            add(supply_charge, supply_current, out=supply_charge)
            divide(node_currents, capacitance, out=node_currents)
            add(node_v, node_currents, out=node_v)
            maximum(node_v, low, out=node_v)
            minimum(node_v, high, out=node_v)

        def advance(first: int, stop: int) -> None:
            if not 0 <= first <= stop <= len(source_row):
                raise SimulationError(
                    f"sub-steps [{first}, {stop}) are not rows of the "
                    f"{len(source_row)}-step step-size table")
            for i in range(first, stop):
                if source_row[i] >= 0:
                    copyto(driven_v, source_rows[source_row[i]])
                step(i)

        states = [voltages[:, start:stop]
                  for start, stop in batch.group_columns]

        def march(plan, waveforms) -> None:
            position = 0
            for mark, group, sample in zip(*map(memoryview, plan)):
                if mark != position:
                    advance(position, mark)
                    position = mark
                copyto(waveforms[group][sample], states[group])

        self.march = march

    @staticmethod
    def _current_kernel(batch, terminals: np.ndarray, out: np.ndarray):
        """Build the device-current step: ``terminals -> out``.

        ``terminals`` is the ``(3T, B)`` gathered gate|drain|source
        voltages and ``out`` receives the current out of each device's
        drain terminal, ``(T, B)``.  The conduction direction is folded
        into ``(vgs, vds)`` relative to the low (n-type) or high (p-type)
        channel terminal, and the sign of the drain current follows the
        terminal ordering.  Inactive lanes (``overdrive <= 0`` or
        ``vds <= 0``) are masked to exactly zero.  Every expression keeps
        the scalar operand association; the intermediates live in buffers
        allocated here, once per integration.
        """
        shape = batch.prefactor.shape
        devices, n = shape[0], batch.n_devices
        vth, nominal_ov = batch.vth, batch.nominal_ov
        prefactor, alpha = batch.prefactor, batch.alpha
        gate_v = terminals[:devices]
        drain_v = terminals[devices:2 * devices]
        source_v = terminals[2 * devices:]
        high, low, vds, vgs, overdrive, ratio, saturation, triode, scratch = (
            np.empty(shape) for _ in range(9))
        active, saturated, forward = (
            np.empty(shape, dtype=bool) for _ in range(3))
        gate_n, low_n, vgs_n = gate_v[:n], low[:n], vgs[:n]
        gate_p, high_p, vgs_p = gate_v[n:], high[n:], vgs[n:]
        maximum, minimum, subtract = np.maximum, np.minimum, np.subtract
        multiply, divide, power = np.multiply, np.divide, np.power
        greater, greater_equal = np.greater, np.greater_equal
        negative, where, copyto = np.negative, np.where, np.copyto

        def device_currents() -> None:
            maximum(drain_v, source_v, out=high)
            minimum(drain_v, source_v, out=low)
            subtract(high, low, out=vds)
            subtract(gate_n, low_n, out=vgs_n)         # n-type: gate - low
            subtract(high_p, gate_p, out=vgs_p)        # p-type: high - gate
            subtract(vgs, vth, out=overdrive)
            # (overdrive > 0) & (vds > 0), NaN lanes included: min(a, b) > 0
            # holds exactly when both do.
            greater(minimum(overdrive, vds, out=scratch), 0.0, out=active)
            # Inactive lanes get a harmless positive base so the power and
            # division lanes never see zero or negative operands.
            safe = where(active, overdrive, 1.0)
            divide(safe, nominal_ov, out=ratio)
            multiply(prefactor, power(ratio, alpha, out=ratio), out=saturation)
            divide(vds, safe, out=triode)
            # saturation * triode * (2.0 - triode), left to right.
            multiply(saturation, triode, out=scratch)
            multiply(scratch, subtract(2.0, triode, out=triode), out=scratch)
            magnitude = where(greater_equal(vds, overdrive, out=saturated),
                              saturation, scratch)
            magnitude = where(active, magnitude, 0.0)
            copyto(out, where(greater_equal(drain_v, source_v, out=forward),
                              magnitude, negative(magnitude, out=scratch)))

        return device_currents


class _Context(ctypes.Structure):
    """``repro_step`` of ``_step.c``: sizes, then buffer addresses, then
    NumPy's ``power`` loop and its data."""

    _fields_ = (
        [(name, ctypes.c_ssize_t)
         for name in ("devices", "n_type", "batch", "nodes", "ranks",
                      "steps", "groups", "sources", "rows")]
        + [(name, ctypes.c_void_p)
           for name in ("voltages", "terminal_idx", "vth", "nominal_ov",
                        "prefactor", "alpha", "vds", "overdrive", "ratio",
                        "drive", "rank_table", "capacitance", "clamp_low",
                        "clamp_high", "supply_charge", "acc", "dt",
                        "step_sizes", "column_group", "group_columns",
                        "source_row", "source_rows", "power",
                        "power_data")]
    )


class _Plan(ctypes.Structure):
    """``repro_plan`` of ``_step.c``: the sample plan's length, its three
    columns, and each group's sample count and waveform block."""

    _fields_ = [("count", ctypes.c_ssize_t)] + [
        (name, ctypes.c_void_p)
        for name in ("mark", "group", "sample", "samples", "waveforms")]


def _address(array: np.ndarray, shape, dtype=np.float64) -> int:
    """The data address of ``array`` after checking what ``_step.c``
    assumes of it: this shape and dtype, C-contiguous."""
    if (array.shape != tuple(shape) or array.dtype != dtype
            or not array.flags.c_contiguous):
        raise SimulationError(
            f"compiled stepper buffer must be a C-contiguous {shape} "
            f"{np.dtype(dtype).name} array, got {array.shape} {array.dtype}")
    return array.ctypes.data


class CStepper:
    """The sub-step loop in compiled C, with NumPy's ``power`` loop
    called by pointer: ``march`` is one ``repro_march`` call.

    Construct only when :func:`resolve_stepper` returned this class.  The
    C code holds raw addresses: every buffer of the batch it reads or
    writes is held by this object, so ``march`` (a bound method) keeps
    them alive; the plan and the waveform blocks are the caller's, for
    the length of the call.
    """

    name = "c"

    def __init__(self, batch, voltages: np.ndarray,
                 supply_charge: np.ndarray, step_sizes: np.ndarray,
                 changed: np.ndarray, source_rows: np.ndarray):
        library, loop = load_library(), power_loop()
        if library is None or loop is None:
            raise SimulationError("the compiled stepper is not available")
        devices, width = batch.prefactor.shape
        nodes, sources = batch.nodes, len(batch.source_keys)
        ranks = batch.rank_table.shape[0]
        steps, groups = len(step_sizes), len(batch.group_bases)
        rows = len(batch.initial_voltages)
        per_device = (devices, width)
        source_row = _source_index(batch, step_sizes, changed, source_rows)
        group_columns = np.array(batch.group_columns,
                                 dtype=np.intp).reshape(-1, 2)
        self._buffers = buffers = {
            "vds": np.empty(per_device),
            "overdrive": np.empty(per_device),
            "ratio": np.empty(per_device),
            "drive": np.zeros((2 * devices + 1, width)),
            "acc": np.empty(width),
            "dt": np.empty(width),
        }
        self._inputs = (batch, voltages, supply_charge, step_sizes,
                        source_row, source_rows, group_columns)
        self._context = _Context(
            devices=devices, n_type=batch.n_devices, batch=width,
            nodes=nodes, ranks=ranks, steps=steps, groups=groups,
            sources=sources, rows=rows,
            voltages=_address(voltages, (rows, width)),
            terminal_idx=_address(batch.terminal_idx, (3 * devices,),
                                  np.intp),
            vth=_address(batch.vth, per_device),
            nominal_ov=_address(batch.nominal_ov, per_device),
            prefactor=_address(batch.prefactor, per_device),
            alpha=_address(batch.alpha, per_device),
            rank_table=_address(batch.rank_table, (ranks, nodes + 1),
                                np.intp),
            capacitance=_address(batch.capacitance, (nodes, width)),
            clamp_low=_address(batch.clamp_low, (1, width)),
            clamp_high=_address(batch.clamp_high, (1, width)),
            supply_charge=_address(supply_charge, (width,)),
            step_sizes=_address(step_sizes, (steps, groups)),
            column_group=_address(batch.column_group, (width,), np.intp),
            group_columns=_address(group_columns, (groups, 2), np.intp),
            source_row=_address(source_row, (steps,), np.intp),
            source_rows=_address(source_rows, source_rows.shape),
            power=loop[0], power_data=loop[1],
            **{name: _address(array, array.shape)
               for name, array in buffers.items()},
        )
        if nodes + sources > rows:
            raise SimulationError("driven rows out of range")
        if batch.terminal_idx.size and not (
                0 <= batch.terminal_idx.min()
                and batch.terminal_idx.max() < rows):
            raise SimulationError("terminal row out of range")
        if not (0 <= batch.rank_table.min()
                and batch.rank_table.max() <= 2 * devices):
            raise SimulationError("rank-table drive row out of range")
        if not (0 <= batch.column_group.min()
                and batch.column_group.max() < groups):
            raise SimulationError("column time-base group out of range")
        starts, stops = group_columns.T
        if not np.all((0 <= starts) & (starts <= stops) & (stops <= width)):
            raise SimulationError("group columns out of range")
        self._widths = (stops - starts).tolist()
        self._kernel = (library.repro_march,
                        ctypes.addressof(self._context), steps, rows)

    def march(self, plan, waveforms) -> None:
        run, context, steps, rows = self._kernel
        if len(plan) != 3 or len(waveforms) != len(self._widths):
            raise SimulationError(f"march takes three plan columns and "
                                  f"{len(self._widths)} waveform blocks")
        count = len(plan[0])
        marks, groups, samples = (_address(column, (count,), np.intp)
                                  for column in plan)
        lengths = np.array([len(block) for block in waveforms], dtype=np.intp)
        blocks = (ctypes.c_void_p * len(waveforms))(*[
            _address(block, (len(block), rows, width))
            for block, width in zip(waveforms, self._widths)])
        table = _Plan(count=count, mark=marks, group=groups, sample=samples,
                      samples=lengths.ctypes.data,
                      waveforms=ctypes.addressof(blocks))
        if run(context, ctypes.addressof(table)):
            raise SimulationError(
                f"the sample plan is not sorted marks in [0, {steps}] over "
                f"the groups and rows of its waveform blocks")


def cache_dir() -> Path:
    """The per-user directory of compiled stepper libraries:
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def find_compiler() -> Optional[str]:
    """The first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    return next(filter(None, map(shutil.which, COMPILERS)), None)


def _library_path(compiler: str) -> Path:
    """Where the library of this source, compiler and flags lives."""
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=True, timeout=60).stdout
    key = hashlib.sha256()
    for part in (C_SOURCE.read_bytes(), version.encode(),
                 " ".join(CFLAGS).encode()):
        key.update(hashlib.sha256(part).digest())
    return cache_dir() / f"repro-step-{key.hexdigest()[:32]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` is a library this module wrote, whole: its last
    32 bytes are the SHA-256 of the bytes before them."""
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return False
    body, digest = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == digest


def _build(compiler: str, path: Path) -> None:
    """Compile the library to a temp file beside ``path``, append its
    SHA-256, rename it into place, and then :func:`_prune` its
    directory.  Raises on any failure and leaves no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                         suffix=".so")
    os.close(handle)
    try:
        built = subprocess.run(
            [compiler, *CFLAGS, "-o", temp_name, str(C_SOURCE)],
            capture_output=True, text=True, timeout=300)
        if built.returncode != 0:
            raise subprocess.CalledProcessError(
                built.returncode, built.args, built.stdout, built.stderr)
        with open(temp_name, "rb+") as stream:
            digest = hashlib.sha256(stream.read()).digest()
            stream.write(digest)
        os.replace(temp_name, path)
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
    _prune(path)


def _prune(keep: Path) -> None:
    """Delete, beside the library ``keep``, temp files older than
    :data:`STALE_TEMP_S` and other libraries not modified for
    :data:`STALE_LIBRARY_S`.  A library another process has loaded stays
    mapped after its file is deleted.  Best effort: an entry that cannot
    be deleted stays, and never fails the build that published ``keep``."""
    # Imported here: the obs package reaches the runtime layer, which
    # sits above this engine.
    from ..obs import clock

    now = clock.wall_time()
    for pattern, age in ((".tmp-*", STALE_TEMP_S),
                         ("repro-step-*.so", STALE_LIBRARY_S)):
        for path in keep.parent.glob(pattern):
            try:
                if path != keep and now - path.stat().st_mtime > age:
                    path.unlink()
            except OSError:     # another builder's prune, not ours to delete
                pass


@functools.lru_cache(maxsize=None)
def load_library() -> Optional[ctypes.CDLL]:
    """The compiled stepper library, built on first use; ``None`` when
    there is no C compiler on ``PATH`` or the build or load failed.

    Resolved once per process: worker processes load the cached file
    and do not rebuild it.  A failure is reported as a
    :class:`RuntimeWarning`; a missing compiler is not a failure (a C
    compiler is optional), and the ``transient.integrate`` trace span
    records which stepper ran either way.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    try:
        path = _library_path(compiler)
        if not _intact(path):
            _build(compiler, path)
        library = ctypes.CDLL(str(path))
        march = library.repro_march
        march.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        march.restype = ctypes.c_int
    except (OSError, subprocess.SubprocessError, AttributeError) as error:
        detail = getattr(error, "stderr", None) or error
        warnings.warn(f"compiled transient stepper unavailable, integrating "
                      f"with NumPy: {detail}", RuntimeWarning, stacklevel=2)
        return None
    return library


class _UFuncHead(ctypes.Structure):
    """The fields of NumPy's ``PyUFuncObject`` (``numpy/ufuncobject.h``)
    that follow ``PyObject_HEAD``, up to the type table."""

    _fields_ = [("nin", ctypes.c_int), ("nout", ctypes.c_int),
                ("nargs", ctypes.c_int), ("identity", ctypes.c_int),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p),
                ("types", ctypes.POINTER(ctypes.c_char))]


def _ufunc_head(ufunc: np.ufunc) -> _UFuncHead:
    """``ufunc``'s loop table, read in place."""
    return _UFuncHead.from_address(id(ufunc) + object.__basicsize__)


#: NumPy's inner-loop signature, ``PyUFuncGenericFunction``.
_LOOP = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_void_p),
                         ctypes.POINTER(ctypes.c_ssize_t),
                         ctypes.POINTER(ctypes.c_ssize_t), ctypes.c_void_p)


def _call_loop(loop, base: np.ndarray, exponent: np.ndarray) -> None:
    """Call ``loop`` as ``_step.c`` does: on ``(base, exponent) -> base``,
    in place, contiguous float64."""
    operands = (ctypes.c_void_p * 3)(base.ctypes.data, exponent.ctypes.data,
                                     base.ctypes.data)
    _LOOP(loop[0])(operands, (ctypes.c_ssize_t * 1)(base.size),
                   (ctypes.c_ssize_t * 3)(8, 8, 8), loop[1])


def _probe(loop) -> Optional[int]:
    """The first lane count, from 1 to 70, at which ``loop`` differs from
    ``np.power``, or ``None``.  The lanes are quasi-random: bases in
    ``[e**-6, e**3)`` and exponents in ``[0.5, 3)`` from golden-ratio
    and silver-ratio sequences, so the probe draws no random numbers."""
    start = 0
    for lanes in range(1, 71):
        k = np.arange(start, start + lanes, dtype=float)
        start += lanes
        base = np.exp(9.0 * (k * 0.6180339887498949 % 1.0) - 6.0)
        exponent = 0.5 + 2.5 * (k * 0.41421356237309503 % 1.0)
        expected = np.power(base, exponent)
        _call_loop(loop, base, exponent)
        if base.tobytes() != expected.tobytes():
            return lanes
    return None


def _bind_power_loop() -> Tuple[int, Optional[int]]:
    """The address of ``np.power``'s float64 inner loop and of its data,
    read from its loop table and checked; raises ``ValueError`` on any
    disagreement with ``np.power``."""
    if type(np.power) is not np.ufunc:
        raise ValueError("np.power is not a ufunc")
    head = _ufunc_head(np.power)
    if ((head.nin, head.nout, head.nargs, head.ntypes, head.name)
            != (np.power.nin, np.power.nout, np.power.nargs,
                np.power.ntypes, np.power.__name__.encode())):
        raise ValueError("np.power's object does not have the layout of "
                         "numpy/ufuncobject.h")
    chars = {np.dtype(char).num: char for char in "?bBhHiIlLqQefdgFDGO"}
    codes = head.types[:head.nargs * head.ntypes]
    try:
        types = [f"{chars[a]}{chars[b]}->{chars[c]}"
                 for a, b, c in zip(*[iter(codes)] * 3)]
    except KeyError as error:
        raise ValueError(f"np.power's type table has an unknown type "
                         f"number {error}") from None
    if types != np.power.types:
        raise ValueError("np.power's type table does not match "
                         "np.power.types")
    # The first float64 entry is the one type resolution picks.
    index = types.index("dd->d")
    loop = head.functions[index], head.data[index]
    if not loop[0]:
        raise ValueError("np.power's float64 loop is NULL")
    lanes = _probe(loop)
    if lanes is not None:
        raise ValueError(f"np.power's float64 loop differs from np.power "
                         f"on {lanes} lanes")
    return loop


@functools.lru_cache(maxsize=None)
def power_loop() -> Optional[Tuple[int, Optional[int]]]:
    """``(loop, data)`` addresses of the inner loop ``np.power`` runs on
    float64 operands, for ``_step.c`` to call; ``None``, with a
    :class:`RuntimeWarning`, when the binding cannot be trusted.

    Bound once per process: the loop is read from ``np.power``'s loop
    table through the public layout of ``PyUFuncObject``.  It is trusted
    only when the table's sizes, name and decoded types equal
    ``np.power``'s, and the loop reproduces ``np.power`` bit for bit, in
    place, on quasi-random lanes of every length from 1 to 70 (NumPy's
    SIMD loops treat the tail of a lane count apart).
    """
    try:
        return _bind_power_loop()
    except ValueError as error:
        warnings.warn(f"NumPy's power loop cannot be bound, integrating "
                      f"with NumPy: {error}", RuntimeWarning, stacklevel=2)
        return None


def resolve_stepper():
    """The stepper class :meth:`CompiledTransientBatch.integrate` uses:
    :class:`CStepper` when its library is available and NumPy's power
    loop is bound, else :class:`NumpyStepper`."""
    if load_library() is not None and power_loop() is not None:
        return CStepper
    return NumpyStepper


__all__ = ["CFLAGS", "COMPILERS", "C_SOURCE", "CStepper", "NumpyStepper",
           "STALE_LIBRARY_S", "STALE_TEMP_S", "cache_dir", "find_compiler",
           "load_library", "power_loop", "resolve_stepper"]
