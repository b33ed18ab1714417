"""The transient sub-step: one interface, two implementations.

:meth:`CompiledTransientBatch._march <repro.circuit.simulator.
CompiledTransientBatch._march>` is the one sub-step loop: it owns the
schedule, the stimulus ``changed`` mask and source rows, and the
sampling.  A stepper is built with the batch's ``(K, G)`` sub-step size
table, and each sub-step ``i`` the loop calls ``stepper.step(i)``, which
advances the state matrix and the supply charge by one explicit-Euler
step: column ``b`` steps by ``step_sizes[i, column_group[b]]``.  Two
steppers implement that call, byte for byte alike:

* :class:`NumpyStepper` — about 34 NumPy ufunc calls per sub-step.  It
  is the fallback and the oracle the compiled stepper is tested against.
* :class:`CStepper` — the same operations in ``_step.c``, loaded through
  :mod:`ctypes`: one C call before ``np.power`` and one after.  Only
  ``power`` stays in NumPy, because NumPy's SIMD ``power`` loop does not
  round like libm's ``pow``; every other operation of a sub-step is an
  IEEE basic operation that C, built without contraction or fast-math,
  reproduces bit for bit.

:func:`resolve_stepper` picks :class:`CStepper` when its library builds
and loads, else :class:`NumpyStepper`.  The library is built on the
first integration of a process, never at import, into the per-user
cache directory :func:`cache_dir`.  Its file name is keyed by the
SHA-256 of the C source, the compiler's ``--version`` output and the
flags, and it is published by temp file and rename, so two processes
may build it at once.  Each file ends in the SHA-256 of the library
before it: a truncated or corrupt file is rebuilt, never loaded.
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
from typing import Optional

import numpy as np

from ..errors import SimulationError

#: The compiled stepper's source, beside this module.
C_SOURCE = Path(__file__).with_name("_step.c")

#: Compiler flags of the library.  ``-ffp-contract=off`` and
#: ``-fno-fast-math`` are part of the bit-identity contract (see the
#: header of ``_step.c``); no ``-march``, so the library runs on any host
#: of the compiler's default target.
CFLAGS = ("-O2", "-fPIC", "-fno-fast-math", "-ffp-contract=off", "-shared")

#: Compiler names tried on ``PATH``, in order.
COMPILERS = ("cc", "gcc")

#: Bytes of the SHA-256 trailer that ends every cached library.
_DIGEST_BYTES = 32


class NumpyStepper:
    """The sub-step in NumPy ufuncs over buffers allocated once.

    ``step(i)`` is one terminal gather, the device currents (an
    elementwise mirror of the reference's ``_channel_current``), one
    rank-table gather, one add per rank, the gather of sub-step ``i``'s
    size for every column, and the ``(current*dt)/C`` update and rail
    clamp on the integrated-net view of ``voltages``.
    """

    name = "numpy"

    def __init__(self, batch, voltages: np.ndarray,
                 supply_charge: np.ndarray, step_sizes: np.ndarray):
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
        add, multiply, divide = np.add, np.multiply, np.divide
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

        self.step = step

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
    """``repro_step`` of ``_step.c``: sizes, then buffer addresses."""

    _fields_ = (
        [(name, ctypes.c_ssize_t)
         for name in ("devices", "n_type", "batch", "nodes", "ranks",
                      "steps", "groups")]
        + [(name, ctypes.c_void_p)
           for name in ("voltages", "terminal_idx", "terminals", "vth",
                        "nominal_ov", "prefactor", "vds", "overdrive",
                        "ratio", "drive", "rank_table", "capacitance",
                        "clamp_low", "clamp_high", "supply_charge", "acc",
                        "step_sizes", "column_group")]
    )


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
    """The sub-step in compiled C: ``pre``, NumPy ``power``, ``post``.

    Construct only when :func:`load_library` returned a library.  The C
    code holds raw addresses: every buffer it reads or writes is held by
    this object, so ``step`` (a bound method) keeps them alive.
    """

    name = "c"

    def __init__(self, batch, voltages: np.ndarray,
                 supply_charge: np.ndarray, step_sizes: np.ndarray):
        library = load_library()
        if library is None:
            raise SimulationError("the compiled stepper is not available")
        devices, width = batch.prefactor.shape
        nodes = batch.nodes
        ranks = batch.rank_table.shape[0]
        steps, groups = len(step_sizes), len(batch.group_bases)
        per_device = (devices, width)
        self._buffers = buffers = {
            "terminals": np.empty((3 * devices, width)),
            "vds": np.empty(per_device),
            "overdrive": np.empty(per_device),
            "ratio": np.empty(per_device),
            "drive": np.zeros((2 * devices + 1, width)),
            "acc": np.empty(width),
        }
        self._inputs = (batch, voltages, supply_charge, step_sizes)
        self._context = _Context(
            devices=devices, n_type=batch.n_devices, batch=width,
            nodes=nodes, ranks=ranks, steps=steps, groups=groups,
            voltages=_address(voltages, (len(batch.initial_voltages), width)),
            terminal_idx=_address(batch.terminal_idx, (3 * devices,),
                                  np.intp),
            vth=_address(batch.vth, per_device),
            nominal_ov=_address(batch.nominal_ov, per_device),
            prefactor=_address(batch.prefactor, per_device),
            rank_table=_address(batch.rank_table, (ranks, nodes + 1),
                                np.intp),
            capacitance=_address(batch.capacitance, (nodes, width)),
            clamp_low=_address(batch.clamp_low, (1, width)),
            clamp_high=_address(batch.clamp_high, (1, width)),
            supply_charge=_address(supply_charge, (width,)),
            step_sizes=_address(step_sizes, (steps, groups)),
            column_group=_address(batch.column_group, (width,), np.intp),
            **{name: _address(array, array.shape)
               for name, array in buffers.items()},
        )
        if batch.terminal_idx.size and not (
                0 <= batch.terminal_idx.min()
                and batch.terminal_idx.max() < len(batch.initial_voltages)):
            raise SimulationError("terminal row out of range")
        if not (0 <= batch.rank_table.min()
                and batch.rank_table.max() <= 2 * devices):
            raise SimulationError("rank-table drive row out of range")
        if not (0 <= batch.column_group.min()
                and batch.column_group.max() < groups):
            raise SimulationError("column time-base group out of range")
        if batch.alpha.shape != per_device:
            raise SimulationError("alpha must have the shape of prefactor")
        self._kernel = (library.repro_step_pre, library.repro_step_post,
                        ctypes.addressof(self._context), np.power,
                        buffers["ratio"], batch.alpha)

    def step(self, i: int) -> None:
        pre, post, context, power, ratio, alpha = self._kernel
        pre(context)
        power(ratio, alpha, out=ratio)
        if post(context, i):
            raise SimulationError(f"sub-step {i} is not a row of the "
                                  f"step-size table")


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
    SHA-256, and rename it into place.  Raises on any failure and leaves
    no temp file behind."""
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
        for name, argtypes, restype in (
                ("repro_step_pre", [ctypes.c_void_p], None),
                ("repro_step_post", [ctypes.c_void_p, ctypes.c_ssize_t],
                 ctypes.c_int)):
            function = getattr(library, name)
            function.argtypes, function.restype = argtypes, restype
    except (OSError, subprocess.SubprocessError, AttributeError) as error:
        detail = getattr(error, "stderr", None) or error
        warnings.warn(f"compiled transient stepper unavailable, integrating "
                      f"with NumPy: {detail}", RuntimeWarning, stacklevel=2)
        return None
    return library


def resolve_stepper():
    """The stepper class :meth:`CompiledTransientBatch.integrate` uses:
    :class:`CStepper` when its library is available, else
    :class:`NumpyStepper`."""
    return CStepper if load_library() is not None else NumpyStepper


__all__ = ["CFLAGS", "COMPILERS", "C_SOURCE", "CStepper", "NumpyStepper",
           "cache_dir", "find_compiler", "load_library", "resolve_stepper"]
