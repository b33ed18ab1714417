"""The compiled transient stepper's build, cache and fallback paths.

Whatever happens to the compiler or the cached library, an integration
either runs on the C stepper or falls back to the NumPy stepper, and its
bytes are the same either way:

* no compiler on ``PATH``, or one that fails, falls back to NumPy;
* a truncated or corrupt cached library is rebuilt (or, with no working
  compiler, falls back) and is never loaded;
* two processes that build the library at once both end with a loadable
  library and leave no temp file behind;
* process workers load the cached library and do not rebuild it;
* every study still runs, byte for byte alike, without a compiler;
* the library's cache key covers its source, so a library built from
  another ``_step.c`` is never loaded;
* a step-size table, column-group array, stimulus, plan column or
  waveform block the C code could misread is refused before any C call,
  and a sample plan with a mark, group or sample out of range is refused
  before the C code writes anything;
* NumPy's float64 ``power`` loop, which the C code calls by pointer, is
  ``np.power`` bit for bit, under either of NumPy's CPU dispatch targets;
  a loop table that cannot be trusted falls back to NumPy;
* a C-stepper integration makes one C call, with the sorted sample
  plan, and no Python-level ``np.power`` call; groups that sample at
  different marks get the NumPy stepper's waveforms byte for byte;
* a build deletes stale temp files and stale libraries of other keys,
  and one it cannot delete does not fail the build.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cells import cnfet_technology, gate_transistor_netlist
from repro.circuit import (CompiledTransientBatch, SimulationCase,
                           build_inverter_chain, cnfet_inverter, pulse_source,
                           run_transient_batch, step_source, stepper)
from repro.circuit_study import run_circuit_study
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters
from repro.errors import SimulationError
from repro.logic import standard_gate
from repro.obs import Tracer
from repro.runtime.scheduler import run_tasks
from repro.study import SweepSpec, run_sweep_study

SRC = Path(__file__).resolve().parent.parent / "src"
TIME_BASE = (4e-12, 0.5e-12)

needs_compiler = pytest.mark.skipif(stepper.find_compiler() is None,
                                    reason="no C compiler on PATH")


def _cases():
    """A packed call: an inverter chain on the call's time base and a
    NAND2 on its own."""
    inverter = cnfet_inverter(6, FO4_GATE_WIDTH_NM,
                              parameters=calibrated_cnfet_parameters())
    chain = build_inverter_chain(inverter, stages=2, fanout=4, vdd=1.0)
    gate = standard_gate("NAND2")
    nand = gate_transistor_netlist(gate, cnfet_technology(vdd=0.9),
                                   load_capacitance=1e-15)
    return [
        SimulationCase(chain, {"in": pulse_source(1.0, 1e-12, 1e-12, 1e-12)},
                       {"n1": 1.0, "n2": 0.0}),
        SimulationCase(nand, {"A": step_source(0.9, 1e-12, 1e-12),
                              "B": step_source(0.9, 0.0, 0.0)},
                       {"out": 0.9}, time_base=(3e-12, 0.25e-12)),
    ]


def integrate(_task=None):
    """``(SHA-256 of every waveform and supply charge, stepper name)`` of
    one traced packed call (module level, so process workers can run
    it)."""
    tracer = Tracer("stepper")
    with tracer.activate():
        results = run_transient_batch(_cases(), *TIME_BASE)
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.time.tobytes())
        for net in sorted(result.waveforms):
            digest.update(net.encode() + result.waveforms[net].tobytes())
        digest.update(float(result.supply_charge).hex().encode())
    names = {entry["attributes"]["stepper"]
             for entry in tracer.to_document()["spans"]
             if entry["name"] == "transient.integrate"}
    assert len(names) == 1, names
    return digest.hexdigest(), names.pop()


@pytest.fixture(scope="module")
def oracle():
    """The NumPy stepper's digest of :func:`integrate`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "resolve_stepper",
                      lambda: stepper.NumpyStepper)
        digest, name = integrate()
    assert name == "numpy"
    return digest


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """This process has not resolved the library yet, and its per-user
    cache directory is empty."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    stepper.load_library.cache_clear()
    yield tmp_path / "xdg" / "repro"
    stepper.load_library.cache_clear()


def _fake_compiler(directory: Path, works: bool = False) -> Path:
    """A ``cc`` on ``directory`` that reports a version and then fails
    every compilation, or (``works``) writes a stand-in library to the
    path after ``-o``."""
    directory.mkdir()
    compiler = directory / "cc"
    compile_step = textwrap.dedent("""\
        while [ "$1" != "-o" ]; do shift; done
        echo "fake library" > "$2"
        """) if works else textwrap.dedent("""\
        echo "fake compiler failure" >&2
        exit 1
        """)
    compiler.write_text(textwrap.dedent("""\
        #!/bin/sh
        if [ "$1" = "--version" ]; then echo "fake cc 1.0"; exit 0; fi
        """) + compile_step)
    compiler.chmod(0o755)
    return compiler


def _libraries(cache: Path):
    return sorted(path.name for path in cache.glob("*")) if cache.exists() \
        else []


@needs_compiler
def test_first_integration_builds_and_runs_the_c_stepper(cold_cache, oracle):
    assert _libraries(cold_cache) == []
    assert integrate() == (oracle, "c")
    files = _libraries(cold_cache)
    assert len(files) == 1 and files[0].startswith("repro-step-"), files


def test_missing_compiler_falls_back_to_numpy(cold_cache, tmp_path,
                                              monkeypatch, oracle):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a compiler is optional
        assert integrate() == (oracle, "numpy")
    assert _libraries(cold_cache) == []


def test_failing_compiler_falls_back_to_numpy(cold_cache, tmp_path,
                                              monkeypatch, oracle):
    _fake_compiler(tmp_path / "bin")
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    with pytest.warns(RuntimeWarning, match="fake compiler failure"):
        assert integrate() == (oracle, "numpy")
    assert _libraries(cold_cache) == []        # no temp file left behind


@needs_compiler
@pytest.mark.parametrize("damage", ["truncate", "empty", "flip"])
def test_corrupt_cached_library_is_rebuilt(cold_cache, oracle, damage):
    # Built but not loaded: a library this process has mapped must not
    # be damaged in place.
    compiler = stepper.find_compiler()
    library = stepper._library_path(compiler)
    stepper._build(compiler, library)
    blob = library.read_bytes()
    library.write_bytes({"truncate": blob[:len(blob) // 2],
                         "empty": b"",
                         "flip": blob[:64] + bytes(len(blob) - 64)}[damage])
    stepper.load_library.cache_clear()
    assert integrate() == (oracle, "c")
    assert library.read_bytes() == blob
    assert _libraries(cold_cache) == [library.name]


def test_corrupt_library_without_a_working_compiler_falls_back(
        cold_cache, tmp_path, monkeypatch, oracle):
    compiler = _fake_compiler(tmp_path / "bin")
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    library = stepper._library_path(str(compiler))
    library.parent.mkdir(parents=True)
    library.write_bytes(b"\x7fELF" + bytes(100))
    with pytest.warns(RuntimeWarning, match="fake compiler failure"):
        assert integrate() == (oracle, "numpy")
    assert _libraries(cold_cache) == [library.name]


_RACER = """
import json, os, sys, time
from pathlib import Path
sys.path.insert(0, {tests!r})
from test_stepper import integrate
go = Path({go!r})
Path(os.environ["READY"]).touch()
while not go.exists():
    time.sleep(0.005)
print(json.dumps(integrate()))
"""


@needs_compiler
def test_two_processes_build_the_library_at_once(cold_cache, tmp_path,
                                                 oracle):
    go = tmp_path / "go"
    script = _RACER.format(tests=str(Path(__file__).parent), go=str(go))
    racers = []
    for index in range(2):
        ready = tmp_path / f"ready-{index}"
        env = dict(os.environ, PYTHONPATH=str(SRC), READY=str(ready))
        racers.append((ready, subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)))
    try:
        deadline = time.monotonic() + 120
        for ready, racer in racers:
            while not ready.exists():
                assert racer.poll() is None, racer.communicate()
                assert time.monotonic() < deadline, "racer never got ready"
                time.sleep(0.01)
        go.touch()
        outputs = [racer.communicate(timeout=300) for _, racer in racers]
    finally:
        for _, racer in racers:
            racer.kill()
    for (_, racer), (out, err) in zip(racers, outputs):
        assert racer.returncode == 0, err
        assert json.loads(out) == [oracle, "c"]
    files = _libraries(cold_cache)
    assert len(files) == 1 and files[0].startswith("repro-step-"), files


@needs_compiler
def test_process_workers_load_the_cached_library(cold_cache, monkeypatch,
                                                 oracle):
    assert stepper.load_library() is not None
    library, = cold_cache.glob("repro-step-*.so")
    built = library.stat()
    stepper.load_library.cache_clear()      # workers resolve from disk

    def no_rebuild(*args):
        raise AssertionError("a worker rebuilt the stepper library")

    monkeypatch.setattr(stepper, "_build", no_rebuild)
    assert run_tasks([functools.partial(integrate, 0),
                      functools.partial(integrate, 1)],
                     jobs=2, backend="process") == \
        [(oracle, "c")] * 2
    after = library.stat()
    assert (after.st_ino, after.st_mtime_ns) == \
        (built.st_ino, built.st_mtime_ns)
    assert _libraries(cold_cache) == [library.name]


@needs_compiler
def test_every_study_runs_alike_without_a_compiler(cold_cache, tmp_path,
                                                   monkeypatch):
    def studies():
        transient = run_sweep_study(SweepSpec.from_mapping({"vdd": (0.9,)}),
                                    engine="transient")
        circuit = run_circuit_study(circuit="adder:2", trials=16,
                                    seed=2009, draws=64)
        return transient.to_json(), circuit.to_json()

    assert stepper.resolve_stepper() is stepper.CStepper
    compiled = studies()
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    stepper.load_library.cache_clear()
    assert stepper.resolve_stepper() is stepper.NumpyStepper
    assert studies() == compiled


def test_library_path_covers_the_source(tmp_path, monkeypatch):
    compiler = str(_fake_compiler(tmp_path / "bin"))
    source = bytearray(stepper.C_SOURCE.read_bytes())
    before = stepper._library_path(compiler)
    source[len(source) // 2] ^= 1
    changed = tmp_path / "_step.c"
    changed.write_bytes(bytes(source))
    monkeypatch.setattr(stepper, "C_SOURCE", changed)
    assert stepper._library_path(compiler) != before


class _NoCalls:
    """A stand-in library: calling any of its functions fails the test."""

    def __getattr__(self, name):
        def called(*args):
            raise AssertionError(f"{name} was called")
        return called


def _integration():
    """The packed call of :func:`_cases`, compiled and scheduled:
    ``(batch, boundaries, (K, G) step-size table, changed, source
    rows)``."""
    batch = CompiledTransientBatch(_cases())
    return (batch, *batch._schedule(*TIME_BASE)[1:])


def _plan(boundaries):
    """Every sample's ``(mark, group, sample)``, sorted, as three
    ``intp`` columns: the driver's plan, built another way."""
    triples = sorted((int(mark), group, sample)
                     for group, bounds in enumerate(boundaries)
                     for sample, mark in enumerate(bounds))
    return tuple(np.array(column, dtype=np.intp) for column in zip(*triples))


def _blocks(batch, boundaries):
    """Waveform blocks in the driver's layout, filled with NaN."""
    rows = len(batch.initial_voltages)
    return [np.full((len(bounds), rows, stop - start), np.nan)
            for bounds, (start, stop) in zip(boundaries, batch.group_columns)]


def _c_stepper(batch, *schedule):
    return stepper.CStepper(batch, batch.initial_voltages.copy(),
                            np.zeros(batch.batch_size), *schedule)


@pytest.mark.parametrize("damage", [
    "group past the end", "negative group", "int32 groups", "short groups",
    "1-D table", "Fortran table", "float32 table", "narrow table",
    "short mask", "integer mask", "missing source row", "float32 rows",
    "group columns past the batch", "missing group columns"])
def test_c_stepper_refuses_bad_step_tables(monkeypatch, damage):
    monkeypatch.setattr(stepper, "load_library", _NoCalls)
    batch, _, step_sizes, changed, rows = _integration()
    assert step_sizes.shape == (step_sizes.shape[0], 2)
    _c_stepper(batch, step_sizes, changed, rows)    # intact: accepted
    if damage == "group past the end":
        batch.column_group[-1] = len(batch.group_bases)
    elif damage == "negative group":
        batch.column_group[0] = -1
    elif damage == "int32 groups":
        batch.column_group = batch.column_group.astype(np.int32)
    elif damage == "short groups":
        batch.column_group = batch.column_group[:-1]
    elif damage == "short mask":
        changed = changed[:-1]
    elif damage == "integer mask":
        changed = changed.astype(np.intp)
    elif damage == "missing source row":
        rows = rows[:-1]
    elif damage == "float32 rows":
        rows = rows.astype(np.float32)
    elif damage == "group columns past the batch":
        start, stop = batch.group_columns[-1]
        batch.group_columns[-1] = (start, stop + 1)
    elif damage == "missing group columns":
        batch.group_columns = batch.group_columns[:-1]
    else:
        step_sizes = {"1-D table": step_sizes[:, 0],
                      "Fortran table": np.asfortranarray(step_sizes),
                      "float32 table": step_sizes.astype(np.float32),
                      "narrow table": step_sizes[:, :1].copy()}[damage]
    with pytest.raises(SimulationError):
        _c_stepper(batch, step_sizes, changed, rows)


@pytest.mark.parametrize("damage", [
    "int32 marks", "short groups", "strided samples", "two columns",
    "missing block", "narrow block", "float32 block", "Fortran block"])
def test_c_stepper_refuses_bad_plan_buffers(monkeypatch, damage):
    monkeypatch.setattr(stepper, "load_library", _NoCalls)
    batch, boundaries, *schedule = _integration()
    plan, blocks = list(_plan(boundaries)), _blocks(batch, boundaries)
    march = _c_stepper(batch, *schedule).march
    with pytest.raises(AssertionError, match="repro_march was called"):
        march(tuple(plan), blocks)                  # intact: reaches C
    if damage == "int32 marks":
        plan[0] = plan[0].astype(np.int32)
    elif damage == "short groups":
        plan[1] = plan[1][:-1]
    elif damage == "strided samples":
        plan[2] = np.repeat(plan[2], 2)[::2]
    elif damage == "two columns":
        plan = plan[:2]
    elif damage == "missing block":
        blocks = blocks[:-1]
    elif damage == "narrow block":
        blocks[-1] = blocks[-1][:, :, :-1].copy()
    elif damage == "float32 block":
        blocks[0] = blocks[0].astype(np.float32)
    else:
        blocks[0] = np.asfortranarray(blocks[0])
    with pytest.raises(SimulationError):
        march(tuple(plan), blocks)


_PLAN_DAMAGES = ("mark below 0", "mark above K", "decreasing marks",
                 "group past G", "negative group", "sample past the block",
                 "negative sample")


@pytest.mark.parametrize("kind,damage", [
    *(pytest.param(stepper.CStepper, damage, id=damage, marks=needs_compiler)
      for damage in _PLAN_DAMAGES),
    *(pytest.param(stepper.NumpyStepper, damage, id=f"numpy-{damage}")
      for damage in _PLAN_DAMAGES)])
def test_c_march_refuses_bad_plans(kind, damage):
    """A plan the C code would misread is refused before it writes, by
    ``repro_march`` and by the NumPy oracle alike: the state, the supply
    charge and every waveform block keep their bytes.  Each damage sits
    at the plan's end, past every valid sample.  The whole table is
    accepted."""
    batch, boundaries, *schedule = _integration()
    steps = len(schedule[0])
    marks, groups, samples = plan = _plan(boundaries)
    assert marks[-1] == steps
    if damage == "mark below 0":
        marks[0] = -1
    elif damage == "mark above K":
        marks[-1] = steps + 1
    elif damage == "decreasing marks":
        marks[-1] = marks[-2] - 1
    elif damage == "group past G":
        groups[-1] = len(boundaries)
    elif damage == "negative group":
        groups[-1] = -1
    elif damage == "sample past the block":
        samples[-1] = len(boundaries[groups[-1]])
    else:
        samples[-1] = -1
    voltages = batch.initial_voltages.copy()
    charge = np.zeros(batch.batch_size)
    blocks = _blocks(batch, boundaries)
    before = [block.tobytes() for block in blocks]
    march = kind(batch, voltages, charge, *schedule).march
    with pytest.raises(SimulationError, match="sample plan"):
        march(plan, blocks)
    assert voltages.tobytes() == batch.initial_voltages.tobytes()
    assert charge.tobytes() == bytes(charge.nbytes)
    assert [block.tobytes() for block in blocks] == before
    march(_plan(boundaries), blocks)
    assert voltages.tobytes() != batch.initial_voltages.tobytes()
    assert not any(np.isnan(block).any() for block in blocks)


@needs_compiler
def test_groups_sampling_at_different_marks_match_numpy():
    """A packed two-group batch whose groups sample at different marks:
    the C stepper's waveform blocks and supply charge equal the NumPy
    stepper's byte for byte."""
    batch, boundaries, *schedule = _integration()
    first, second = (set(bounds.tolist()) for bounds in boundaries)
    assert first - second and second - first
    outputs = []
    for kind in (stepper.CStepper, stepper.NumpyStepper):
        voltages = batch.initial_voltages.copy()
        charge = np.zeros(batch.batch_size)
        blocks = _blocks(batch, boundaries)
        kind(batch, voltages, charge, *schedule).march(_plan(boundaries),
                                                       blocks)
        outputs.append([array.tobytes()
                        for array in (*blocks, voltages, charge)])
    assert outputs[0] == outputs[1]


def _probe_lanes(seed: int, lanes: int):
    """Random ``(base, exponent)`` lanes: the saturation law's ratios and
    indices, and a wider range around them."""
    rng = np.random.default_rng([seed, lanes])
    return (np.exp(rng.uniform(-8.0, 4.0, lanes)),
            rng.uniform(0.25, 4.0, lanes))


@needs_compiler
def test_bound_power_loop_is_np_power():
    """The loop ``_step.c`` calls equals ``np.power`` bit for bit, in
    place, at every lane count from 1 to 70."""
    loop = stepper.power_loop()
    assert loop is not None
    for lanes in range(1, 71):
        base, exponent = _probe_lanes(1, lanes)
        expected = np.power(base, exponent)
        stepper._call_loop(loop, base, exponent)
        assert base.tobytes() == expected.tobytes(), lanes


@pytest.fixture
def unbound(monkeypatch):
    """This process binds NumPy's power loop afresh, and again after the
    test."""
    stepper.power_loop.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    stepper.power_loop.cache_clear()


def _damaged_head(damage):
    """A stand-in for ``_ufunc_head`` that returns a copy of the real
    head with one field damaged."""
    real = stepper._ufunc_head
    kept = []

    def head(ufunc):
        copy = stepper._UFuncHead.from_buffer_copy(real(ufunc))
        size = copy.nargs * copy.ntypes
        if damage == "name":
            copy.name = b"pow"
        elif damage == "sizes":
            copy.ntypes -= 1
        elif damage == "types":
            table = bytearray(copy.types[:size])
            table[0:3], table[36:39] = table[36:39], table[0:3]
            kept.append(ctypes.create_string_buffer(bytes(table), size))
            copy.types = ctypes.cast(kept[-1], type(copy.types))
        else:                      # the float64 loops in the other order
            functions = (ctypes.c_void_p * copy.ntypes)(
                *copy.functions[:copy.ntypes])
            data = (ctypes.c_void_p * copy.ntypes)(*copy.data[:copy.ntypes])
            first, second = [index for index, types in
                             enumerate(np.power.types) if types == "dd->d"]
            for table in (functions, data):
                table[first], table[second] = table[second], table[first]
            kept.extend((functions, data))
            copy.functions = ctypes.cast(functions, type(copy.functions))
            copy.data = ctypes.cast(data, type(copy.data))
        return copy

    return head


def _second_loop_differs() -> bool:
    """Whether ``np.power``'s second float64 loop rounds unlike the one
    type resolution picks, on the binding's probe lanes."""
    head = stepper._ufunc_head(np.power)
    second = [index for index, types in enumerate(np.power.types)
              if types == "dd->d"][1]
    return stepper._probe((head.functions[second],
                           head.data[second])) is not None


@needs_compiler
@pytest.mark.parametrize("damage", ["name", "sizes", "types", "loop order"])
def test_untrusted_power_loop_falls_back_to_numpy(unbound, oracle, damage):
    if damage == "loop order" and not _second_loop_differs():
        pytest.skip("both float64 power loops round alike on this host")
    unbound.setattr(stepper, "_ufunc_head", _damaged_head(damage))
    with pytest.warns(RuntimeWarning, match="power loop cannot be bound"):
        assert stepper.resolve_stepper() is stepper.NumpyStepper
    assert integrate() == (oracle, "numpy")


class _Spy:
    """A library whose ``repro_march`` records the plan of each call."""

    def __init__(self, library):
        self.plans = []
        self._march = library.repro_march

    def repro_march(self, context, plan):
        table = stepper._Plan.from_address(plan)
        self.plans.append(tuple(
            np.ctypeslib.as_array((ctypes.c_ssize_t * table.count)
                                  .from_address(getattr(table, name))).copy()
            for name in ("mark", "group", "sample")))
        return self._march(context, plan)


@needs_compiler
def test_one_c_call_per_integration(monkeypatch):
    """A C-stepper integration is one ``repro_march`` call whose plan is
    every sample's ``(mark, group, sample)``, sorted, and it never calls
    ``np.power`` from Python."""
    spy = _Spy(stepper.load_library())
    assert stepper.power_loop() is not None
    monkeypatch.setattr(stepper, "load_library", lambda: spy)
    monkeypatch.setattr(stepper, "resolve_stepper", lambda: stepper.CStepper)

    def no_power(*args, **kwargs):
        raise AssertionError("np.power was called from Python")

    monkeypatch.setattr(np, "power", no_power)
    batch, boundaries, step_sizes, _, _ = _integration()
    expected = _plan(boundaries)
    assert len(np.unique(expected[0])) > len(boundaries[0]) > 2
    assert expected[0][-1] == len(step_sizes)
    for calls in (1, 2):
        batch.integrate(*TIME_BASE)
        assert len(spy.plans) == calls
        assert [column.tobytes() for column in spy.plans[-1]] \
            == [column.tobytes() for column in expected]


_DISPATCH_SPLIT = """
import json, sys
sys.path.insert(0, {tests!r})
from numpy.lib.introspect import opt_func_info
from repro.circuit import stepper
from test_stepper import integrate
target = opt_func_info(func_name="power")["power"]["ddd"]["current"]
assert stepper.resolve_stepper() is stepper.CStepper
compiled = integrate()
stepper.resolve_stepper = lambda: stepper.NumpyStepper
print(json.dumps([target, compiled, integrate()]))
"""


def _power_target() -> str:
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return ""
    info = opt_func_info(func_name="power").get("power", {})
    return info.get("ddd", {}).get("current", "")


@needs_compiler
@pytest.mark.skipif(_power_target() != "X86_V4",
                    reason="NumPy runs no X86_V4 power loop on this host")
def test_steppers_agree_under_the_baseline_dispatch(oracle):
    """With NumPy's AVX-512 loops disabled, ``np.power`` rounds
    differently, and the bound loop follows it: both steppers still
    agree byte for byte."""
    assert stepper.load_library() is not None      # built, not rebuilt
    env = dict(os.environ, PYTHONPATH=str(SRC),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    run = subprocess.run(
        [sys.executable, "-c",
         _DISPATCH_SPLIT.format(tests=str(Path(__file__).parent))],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    target, compiled, numpy = json.loads(run.stdout)
    assert target != "X86_V4"
    assert compiled[1] == "c" and numpy[1] == "numpy"
    assert compiled[0] == numpy[0]


def _aged(path: Path, seconds: float) -> Path:
    path.write_bytes(b"left behind")
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))
    return path


def test_build_deletes_stale_temp_files_and_libraries(cold_cache, tmp_path):
    compiler = str(_fake_compiler(tmp_path / "bin", works=True))
    cold_cache.mkdir(parents=True)
    hour, week = stepper.STALE_TEMP_S, stepper.STALE_LIBRARY_S
    current = stepper._library_path(compiler)
    stale = [_aged(cold_cache / ".tmp-killed.so", hour + 60),
             _aged(cold_cache / "repro-step-old.so", week + 60)]
    fresh = [_aged(cold_cache / ".tmp-building.so", hour - 60),
             _aged(cold_cache / "repro-step-recent.so", week - 60),
             _aged(current, week + 60)]
    stepper._build(compiler, current)
    assert current.read_bytes().startswith(b"fake library")
    assert _libraries(cold_cache) == sorted(path.name for path in fresh)
    assert not any(path.exists() for path in stale)


def test_undeletable_stale_entries_do_not_fail_the_build(cold_cache, tmp_path,
                                                         monkeypatch):
    compiler = str(_fake_compiler(tmp_path / "bin", works=True))
    cold_cache.mkdir(parents=True)
    hour, week = stepper.STALE_TEMP_S, stepper.STALE_LIBRARY_S
    current = stepper._library_path(compiler)
    directory = cold_cache / ".tmp-a-directory"
    directory.mkdir()
    stamp = time.time() - hour - 60
    os.utime(directory, (stamp, stamp))
    kept = [directory, _aged(cold_cache / "repro-step-foreign.so", week + 60)]
    stale = _aged(cold_cache / "repro-step-old.so", week + 60)
    unlink = Path.unlink

    def refuse_foreign(path, *args, **kwargs):
        if path.name == "repro-step-foreign.so":
            raise PermissionError(13, "Permission denied", str(path))
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", refuse_foreign)
    stepper._build(compiler, current)
    assert current.read_bytes().startswith(b"fake library")
    assert all(path.exists() for path in kept) and not stale.exists()
