"""Sweep engines against independent oracles, plus pinned addresses.

Every engine ``run_sweep_study`` drives is compared, corner by corner and
with ``==`` on the whole metrics payload, against a public entry point
that computes the same numbers without going through the sweep driver:

* immunity grid — :func:`~repro.immunity.montecarlo.run_immunity_trials`
  per ``(gate, cnts, angle, metallic)`` combination, seeded with
  ``sweep_seed_root(seed).spawn(n)`` in that product order and shared by
  every technique (the documented Figure 2 seed contract);
* immunity zip — :func:`~repro.immunity.montecarlo.run_immunity_trials`
  per corner with ``SweepSpec.seeds(seed, share_axes=("technique",))``;
* transient grid — ``characterize_sweep(...).point(...)``;
* transient zip — one single-point ``characterize_sweep`` per corner;
* circuit — one :func:`~repro.circuit_study.run_circuit_study` per corner
  with ``SweepSpec.seeds(seed, share_axes=("vdd", "pitch_nm"))``.

Each comparison runs in four execution modes — uncached, into an empty
corner store, and sharded over two threads or two worker processes — so
every mode must land on the same payload and the expected
``provenance.cache`` annotation.

The golden test pins the hex ``sweep_fingerprint`` and per-corner
addresses of a fixed scenario set, so a refactor of the sweep driver
cannot move a cache address silently.  A deliberate address change (a
fingerprint schema bump) re-pins these values on purpose.  The wrapper
test pins the shape of the study and corner entry files those addresses
name.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.cells.characterize import characterize_sweep, cnfet_technology
from repro.circuit_study import run_circuit_study
from repro.core.standard_cell import assemble_cell
from repro.immunity.montecarlo import run_immunity_trials, sweep_seed_root
from repro.logic.functions import standard_gate
from repro.runtime import ResultCache, sweep_fingerprint
from repro.runtime.cache import CACHE_SCHEMA, CORNER_SCHEMA
from repro.study import SweepSpec, run_study, run_sweep_study
from repro.study import sweeps
from repro.study.sweeps import _plan_sweep, sweep_engine

#: Execution modes every oracle runs in, with the provenance ``cache``
#: annotation each must report.
MODES = ("uncached", "store", "threads", "processes")
STATUS = {"uncached": None, "store": "miss", "threads": None,
          "processes": None}


@pytest.fixture(params=MODES)
def mode(request, tmp_path):
    """``(name, run_sweep_study execution kwargs)`` for one mode."""
    name = request.param
    if name == "store":
        return name, {"cache": ResultCache(tmp_path / "store")}
    if name == "threads":
        return name, {"jobs": 2, "backend": "thread"}
    if name == "processes":
        return name, {"jobs": 2, "backend": "process"}
    return name, {}


def _run(spec, engine, mode, **kwargs):
    name, execution = mode
    result = run_sweep_study(spec, engine=engine, **execution, **kwargs)
    assert result.provenance.cache == STATUS[name]
    assert [record.corner for record in result.records] == spec.corners()
    return result


def planned_keys(spec, engine, trials, seed, fixed):
    """``(corner keys, seeds)`` as the sweep planner computes them, with
    no store attached."""
    corners, _, plan = _plan_sweep(spec, sweep_engine(engine), trials, seed,
                                   fixed, None)
    return list(plan.keys), corners.seeds


def _immunity_metrics(outcome):
    return {
        "failure_rate": outcome.failure_rate,
        "failures": outcome.failures,
        "trials": outcome.trials,
        "immune": outcome.immune,
        "result": outcome,
    }


def _transient_metrics(point):
    return {
        "delay_rise_s": point.delay_rise_s,
        "delay_fall_s": point.delay_fall_s,
        "worst_delay_s": point.worst_delay_s,
        "energy_per_cycle_j": point.energy_per_cycle_j,
        "vdd": point.vdd,
    }


def _corner_label(vdd, pitch_nm):
    return f"v{vdd:g}_p{pitch_nm:g}"


# ---------------------------------------------------------------------------
# Immunity engine
# ---------------------------------------------------------------------------

#: Declared in an order unlike the canonical ``(gate, cnts)`` product
#: order, so per-corner seeds must follow the canonical order, not the
#: spec's.
IMMUNITY_GRID = SweepSpec.from_mapping({
    "technique": ("vulnerable", "compact"),
    "cnts_per_trial": (2, 4),
    "gate": ("NAND2", "NOR2"),
})
IMMUNITY_ZIP = SweepSpec.from_mapping(
    {"technique": ("vulnerable", "compact", "compact"),
     "cnts_per_trial": (2, 2, 4)},
    mode="zip",
)


@pytest.fixture(scope="module")
def immunity_grid_oracle():
    combos = [(gate, cnts) for gate in ("NAND2", "NOR2") for cnts in (2, 4)]
    children = sweep_seed_root(11).spawn(len(combos))
    return {
        (gate, technique, cnts): run_immunity_trials(
            assemble_cell(standard_gate(gate), technique=technique),
            trials=24, cnts_per_trial=cnts, max_angle_deg=20.0,
            metallic_fraction=0.02, seed=child,
        )
        for (gate, cnts), child in zip(combos, children)
        for technique in ("vulnerable", "compact")
    }


def test_immunity_grid_matches_montecarlo_sweep(mode, immunity_grid_oracle):
    result = _run(IMMUNITY_GRID, "immunity", mode, trials=24, seed=11,
                  max_angle_deg=20.0, metallic_fraction=0.02)
    for record in result.records:
        corner = record.corner.as_dict()
        expected = immunity_grid_oracle[
            (corner["gate"], corner["technique"], corner["cnts_per_trial"])]
        assert record.metrics == _immunity_metrics(expected)


@pytest.fixture(scope="module")
def immunity_zip_oracle():
    seeds = IMMUNITY_ZIP.seeds(13, share_axes=("technique",))
    expected = []
    for corner, child in zip(IMMUNITY_ZIP.corners(), seeds):
        values = corner.as_dict()
        expected.append(run_immunity_trials(
            assemble_cell(standard_gate("NOR2"),
                          technique=values["technique"]),
            trials=24, cnts_per_trial=values["cnts_per_trial"],
            max_angle_deg=15.0, metallic_fraction=0.0, seed=child,
        ))
    return expected


def test_immunity_zip_matches_run_immunity_trials(mode, immunity_zip_oracle):
    result = _run(IMMUNITY_ZIP, "immunity", mode, trials=24, seed=13,
                  gate="NOR2")
    assert [record.metrics for record in result.records] == \
        [_immunity_metrics(outcome) for outcome in immunity_zip_oracle]


# ---------------------------------------------------------------------------
# Transient engine
# ---------------------------------------------------------------------------

TRANSIENT_GRID = SweepSpec.from_mapping({
    "vdd": (0.9, 1.0),
    "cell": ("INV", "NAND2"),
    "load_f": (1.0e-15, 2.0e-15),
})
TRANSIENT_ZIP = SweepSpec.from_mapping(
    {"vdd": (0.9, 1.0, 1.0), "pitch_nm": (5.0, 5.0, 4.5)},
    mode="zip",
)


@pytest.fixture(scope="module")
def transient_grid_oracle():
    return characterize_sweep(
        gate_names=("INV", "NAND2"),
        drive_strengths=(2.0,),
        load_capacitances_f=(1.0e-15, 2.0e-15),
        input_slews_s=(5.0e-12,),
        corners={_corner_label(vdd, 5.0): cnfet_technology(vdd=vdd,
                                                           pitch_nm=5.0)
                 for vdd in (0.9, 1.0)},
    )


def test_transient_grid_matches_characterize_sweep(mode,
                                                   transient_grid_oracle):
    result = _run(TRANSIENT_GRID, "transient", mode, drive=2.0)
    for record in result.records:
        corner = record.corner.as_dict()
        point = transient_grid_oracle.point(
            corner["cell"], 2.0, corner["load_f"], 5.0e-12,
            _corner_label(corner["vdd"], 5.0))
        assert record.metrics == _transient_metrics(point)


@pytest.fixture(scope="module")
def transient_zip_oracle():
    expected = []
    for corner in TRANSIENT_ZIP.corners():
        values = corner.as_dict()
        vdd, pitch = values["vdd"], values["pitch_nm"]
        single = characterize_sweep(
            gate_names=("NAND2",), drive_strengths=(1.0,),
            load_capacitances_f=(1.0e-15,), input_slews_s=(5.0e-12,),
            corners={_corner_label(vdd, pitch):
                     cnfet_technology(vdd=vdd, pitch_nm=pitch)},
        )
        expected.append(_transient_metrics(single.points[0]))
    return expected


def test_transient_zip_matches_single_point_sweeps(mode,
                                                   transient_zip_oracle):
    result = _run(TRANSIENT_ZIP, "transient", mode, cell="NAND2")
    assert [record.metrics for record in result.records] == \
        transient_zip_oracle


#: Supplies that agree to six significant digits: each still names its
#: own technology corner, uncached and on a store that already holds
#: the other two.
CLOSE_VDDS = (0.9, 0.9000001, 1.0)


def test_close_supplies_keep_their_own_corners(tmp_path):
    store = ResultCache(tmp_path / "store")
    run_sweep_study(SweepSpec.from_mapping({"vdd": CLOSE_VDDS[1:]}),
                    engine="transient", cache=store)
    spec = SweepSpec.from_mapping({"vdd": CLOSE_VDDS})
    stored = run_sweep_study(spec, engine="transient", cache=store)
    assert stored.metric("vdd") == list(CLOSE_VDDS)
    assert run_sweep_study(spec, engine="transient") == stored


# ---------------------------------------------------------------------------
# Circuit engine
# ---------------------------------------------------------------------------

#: Zip corners 1 and 2 differ only in ``vdd``, so they share a defect
#: population; corner 0 gets its own.
CIRCUIT_ZIP = SweepSpec.from_mapping(
    {"technique": ("compact", "vulnerable", "vulnerable"),
     "vdd": (0.9, 0.9, 1.0)},
    mode="zip",
)
CIRCUIT_FIXED = dict(circuit="adder:2", draws=10)


@pytest.fixture(scope="module")
def circuit_oracle():
    seeds = CIRCUIT_ZIP.seeds(5, share_axes=("vdd", "pitch_nm"))
    expected = []
    for corner, child in zip(CIRCUIT_ZIP.corners(), seeds):
        values = corner.as_dict()
        study = run_circuit_study(
            "adder:2", trials=20, seed=child, cnts_per_trial=4,
            max_angle_deg=15.0, metallic_fraction=0.0,
            technique=values["technique"], vdd=values["vdd"], pitch_nm=5.0,
            draws=10,
        )
        expected.append({
            "functional_yield": study.functional_yield,
            "monte_carlo_yield": study.monte_carlo_yield,
            "critical_path_delay_s": study.critical_path_delay_s,
            "total_energy_per_cycle_j": study.total_energy_per_cycle_j,
            "total_cell_area_lambda2": study.total_cell_area_lambda2,
            "instances": study.instances,
            "unique_cells": study.unique_cells,
        })
    return expected


def test_circuit_matches_run_circuit_study(mode, circuit_oracle):
    result = _run(CIRCUIT_ZIP, "circuit", mode, trials=20, seed=5,
                  **CIRCUIT_FIXED)
    assert [record.metrics for record in result.records] == circuit_oracle


# ---------------------------------------------------------------------------
# Pinned addresses
# ---------------------------------------------------------------------------

#: ``name -> (spec, engine, trials, seed, fixed)``.
SCENARIOS = {
    "immunity-grid": (
        SweepSpec.from_mapping({"cnts_per_trial": (2, 4),
                                "technique": ("vulnerable", "compact"),
                                "gate": ("NAND2", "NOR2")}),
        "immunity", 20, 7, {}),
    "immunity-zip": (
        SweepSpec.from_mapping({"technique": ("vulnerable", "compact"),
                                "max_angle_deg": (10.0, 20.0)}, mode="zip"),
        "immunity", 20, 7, {"gate": "NOR2"}),
    "transient-grid": (
        SweepSpec.from_mapping({"cell": ("INV", "NAND2"),
                                "vdd": (0.9, 1.0)}),
        "transient", 200, 2009, {"drive": 2.0}),
    "transient-zip": (
        SweepSpec.from_mapping({"vdd": (0.9, 1.0), "pitch_nm": (5.0, 4.5)},
                               mode="zip"),
        "transient", 200, 2009, {}),
    "circuit-grid": (
        SweepSpec.from_mapping({"vdd": (0.9, 1.0),
                                "metallic_fraction": (0.0, 0.01)}),
        "circuit", 20, 5, {"circuit": "adder:2", "draws": 10}),
}

#: ``name -> (sweep fingerprint, corner keys, corner seed spawn keys)``.
GOLDEN = {
    "circuit-grid": (
        "fd80b413731dcc25ad94bb1135133a57c583774a34225889bac04685d47504bf",
        [
            "54558af60ea1ca8d03fc70c448348773539fa61a6227c5d26729c4a0cd532b7d",
            "d55918dc6e3e0662e8ea42fd727eef9c7598990bbf28467c56e852a1bbd2d656",
            "e6856de3ed4cf53777ec55b78d7cd947a2f4bb1033599ba47364245d8f5b3ae9",
            "1883a1f63ae80f9ccd55a83829a8d9cd971c5e8a70f9a1b76ceede648e27fc01",
        ],
        [(2147483648, 0), (2147483648, 1), (2147483648, 0), (2147483648, 1)]),
    "immunity-grid": (
        "02e2d1c6900a66dcab66ce37916bc700eb2dcf19295e592d9eda61eba1f2273f",
        [
            "f90cecd382710673d277837fdd7f819d61e77566674de10c6a7a6416bc104a32",
            "fedf7e22dd575b4e55d4c4acf9f62183c15fdb822a198992e867b1f959a78ef0",
            "823cd68f952be8b8f235b205d0c8fa33753b5c79033b5ea1ea41662a98063cb9",
            "2ad7d35dfcee6359ca460b096d2c8880d327f573fcfb1a6cbe83a7c11138b339",
            "6138c749f90cbcf622e6200247772212dc15b7a2a828bcf19b7a0fa0d9ec7e7b",
            "c665e2242629f5584901d0e3b484040a492fbbf2a53619992b4c40bb9b16d538",
            "41163d7380cd1b3218cc7ce447b48257d3e03545b93a05ef10f5e0270eca4e8f",
            "54c3a9f1f783bf6f1cba41cf65e1b9dd2e4eecf6e1b8449644084ca47915f101",
        ],
        [(2147483648, 0),
         (2147483648, 2),
         (2147483648, 0),
         (2147483648, 2),
         (2147483648, 1),
         (2147483648, 3),
         (2147483648, 1),
         (2147483648, 3)]),
    "immunity-zip": (
        "cfc2ee0dcd95de03b663f1e341aba35448c708449da3fb7bfb8a96e97b9a1b6f",
        [
            "3ca1658fe9faacc47b3ddb8326a4ce2675a58e1f7f59c7aa21f5fc2638feb39e",
            "3d1683401ba2d4f90e90e790695045a51c108c85fcb4e482a313e23c55c07481",
        ],
        [(2147483648, 0), (2147483648, 1)]),
    "transient-grid": (
        "ad37692ef48d2219601f8d1c41df5f6c9f2fa4af9033fa083ce34a697a0ecbfd",
        [
            "6d275ed24a2bfbcb29f03d55996a725adee6799edce55bc8141bed946fd9587d",
            "75dfa338a5181b7e4516a871169390754df7697f601a0ea91cb7a22c52334e4b",
            "c1affa7c8087f1effcc191daf0b33d1992043ad4481d9b6415253c605efa85ac",
            "d01bc169c0e15de517fdb2ea78ad00aad0668c9f2192af2b9f859a0bdd5a00a2",
        ],
        None),
    "transient-zip": (
        "8c8d9f1631fdd61759d561f1a27fe4dfcb0f346dfd14ced8752323725ece75f0",
        [
            "a74cb86de1c3c16c268db37299f576e72f3802a31591fd941a6bd1e726207775",
            "c68d22a7af39b26507abfad23a73144979b0679ddb3a415560ca82a6761d5459",
        ],
        None),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_addresses_are_pinned(name):
    spec, engine, trials, seed, fixed = SCENARIOS[name]
    fingerprint, keys, spawn_keys = GOLDEN[name]
    assert sweep_fingerprint(spec, engine, trials, seed, fixed) == fingerprint
    found_keys, seeds = planned_keys(spec, engine, trials, seed, fixed)
    assert found_keys == keys
    if spawn_keys is None:
        assert seeds is None
    else:
        assert [child.spawn_key for child in seeds] == spawn_keys
        assert all(child.entropy == seed for child in seeds)


# ---------------------------------------------------------------------------
# One plan per sweep
# ---------------------------------------------------------------------------

def test_transient_sweep_plans_its_grids_once(monkeypatch, tmp_path):
    """The engine's plan builds the sweep's cell grids, and their time
    bases address and integrate the corners alike: one build per sweep."""
    calls = []
    real = sweeps._transient_grids

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sweeps, "_transient_grids", counting)
    spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
    run_sweep_study(spec, engine="transient",
                    cache=ResultCache(tmp_path / "store"))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Pinned entry wrappers
# ---------------------------------------------------------------------------

#: The exact keys of the integrity document around each stored payload.
STUDY_WRAPPER = {"schema", "fingerprint", "study", "sha256", "created",
                 "result"}
CORNER_WRAPPER = {"schema", "fingerprint", "study", "engine", "sha256",
                  "created", "payload"}


def _wrappers(tree):
    """``[(file stem, text, wrapper)]`` for every entry file under
    ``tree``."""
    entries = []
    for path in sorted(tree.glob("*/*.json")):
        text = path.read_text()
        entries.append((path.stem, text, json.loads(text)))
    return entries


def _digest(payload):
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_entry_wrappers_are_pinned(tmp_path):
    """Study and corner entries keep one on-disk shape: exactly the
    wrapper keys, serialised with sorted keys, filed under their own
    fingerprint with the SHA-256 of the canonical payload, and each
    corner tagged with the engine that computed it."""
    store = ResultCache(tmp_path / "store")
    run_sweep_study(SweepSpec.from_mapping({"cnts_per_trial": (2, 4)}),
                    engine="immunity", trials=10, seed=7, cache=store)
    run_study("circuit", circuit="adder:2", trials=10, seed=7, draws=10,
              cache=store)

    studies = _wrappers(store.root / "objects")
    assert sorted(wrapper["study"] for _, _, wrapper in studies) == [
        "circuit", "sweep"]
    for stem, text, wrapper in studies:
        assert set(wrapper) == STUDY_WRAPPER
        assert wrapper["schema"] == CACHE_SCHEMA
        assert wrapper["fingerprint"] == stem
        assert wrapper["sha256"] == _digest(wrapper["result"])
        assert text == json.dumps(wrapper, sort_keys=True)

    corners = _wrappers(store.root / "corners")
    for stem, text, wrapper in corners:
        assert set(wrapper) == CORNER_WRAPPER
        assert wrapper["schema"] == CORNER_SCHEMA
        assert wrapper["study"] == "corner"
        assert wrapper["fingerprint"] == stem
        assert wrapper["sha256"] == _digest(wrapper["payload"])
        assert text == json.dumps(wrapper, sort_keys=True)
    engines = Counter(wrapper["engine"] for _, _, wrapper in corners)
    assert engines["immunity"] == 2
    assert engines["circuit-immunity"] == engines["circuit-timing"] > 0
    assert set(engines) == {"immunity", "circuit-immunity", "circuit-timing"}
