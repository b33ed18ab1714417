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
* a step-size table or column-group array the C code could misread is
  refused before any C call, and so is a sub-step outside the table.
"""

from __future__ import annotations

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


def _fake_compiler(directory: Path) -> Path:
    """A ``cc`` on ``directory`` that reports a version and then fails
    every compilation."""
    directory.mkdir()
    compiler = directory / "cc"
    compiler.write_text(textwrap.dedent("""\
        #!/bin/sh
        if [ "$1" = "--version" ]; then echo "fake cc 1.0"; exit 0; fi
        echo "fake compiler failure" >&2
        exit 1
        """))
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
    assert run_tasks(integrate, [0, 1], jobs=2, backend="process") == \
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


def _compiled():
    """The packed call of :func:`_cases`, compiled: ``(batch, its
    (K, G) step-size table)``."""
    batch = CompiledTransientBatch(_cases())
    return batch, batch._schedule(*TIME_BASE)[2]


def _c_stepper(batch, step_sizes):
    return stepper.CStepper(batch, batch.initial_voltages.copy(),
                            np.zeros(batch.batch_size), step_sizes)


@pytest.mark.parametrize("damage", [
    "group past the end", "negative group", "int32 groups", "short groups",
    "1-D table", "Fortran table", "float32 table", "narrow table"])
def test_c_stepper_refuses_bad_step_tables(monkeypatch, damage):
    monkeypatch.setattr(stepper, "load_library", _NoCalls)
    batch, step_sizes = _compiled()
    assert step_sizes.shape == (step_sizes.shape[0], 2)
    _c_stepper(batch, step_sizes)                 # intact: accepted
    if damage == "group past the end":
        batch.column_group[-1] = len(batch.group_bases)
    elif damage == "negative group":
        batch.column_group[0] = -1
    elif damage == "int32 groups":
        batch.column_group = batch.column_group.astype(np.int32)
    elif damage == "short groups":
        batch.column_group = batch.column_group[:-1]
    else:
        step_sizes = {"1-D table": step_sizes[:, 0],
                      "Fortran table": np.asfortranarray(step_sizes),
                      "float32 table": step_sizes.astype(np.float32),
                      "narrow table": step_sizes[:, :1].copy()}[damage]
    with pytest.raises(SimulationError):
        _c_stepper(batch, step_sizes)


@needs_compiler
def test_c_step_outside_the_table_is_refused():
    batch, step_sizes = _compiled()
    voltages = batch.initial_voltages.copy()
    charge = np.zeros(batch.batch_size)
    step = stepper.CStepper(batch, voltages, charge, step_sizes).step
    for i in (-1, len(step_sizes)):
        with pytest.raises(SimulationError, match="step-size table"):
            step(i)
    assert voltages.tobytes() == batch.initial_voltages.tobytes()
    assert charge.tobytes() == bytes(charge.nbytes)
    step(len(step_sizes) - 1)
