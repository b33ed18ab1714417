"""The circuit-study engine: per-unique-cell analysis, circuit aggregation.

``run_circuit_study`` is the end-to-end composition the ROADMAP's
"synthesized-circuit immunity at scale" item asks for:

1. resolve the circuit (Verilog / generator spec / live netlist) and map
   it onto the generated CNFET standard-cell library;
2. for every **unique** mapped cell — not every instance — run one Monte
   Carlo immunity analysis (failure probability under the chosen defect
   parameters) and one measured-timing characterisation (waveform-fitted
   R/C model); an 8-bit ripple-carry adder has 72 instances but only two
   unique cells, so this is where the study earns its throughput.  The
   timing corners a run misses are characterised together, one
   transient kernel call per circuit (per shard when ``jobs > 1``);
3. aggregate to circuit level: analytic and Monte Carlo functional
   yield over defect draws, static-timing critical-path delay through
   the mapped netlist using the measured models, and total switching
   energy per cycle.

Per-unique-cell work is content-addressed in the corner store (two
corners per cell: ``circuit-cell`` immunity and ``circuit-timing``) with
seeds derived from the cell *name* alone — so a warm store serves adder
cells to a comparator run, and a grid extension recomputes only the new
cells (``provenance.cache == "partial:<h>/<n>"``).

Determinism: per-cell seeds are pre-derived (:func:`~repro.immunity.
montecarlo.circuit_cell_seed`), tasks are merged by index, and execution
parameters are excluded from provenance — serial, thread and process
backends produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cells import characterize
from ..cells.characterize import (
    MEASURED_LOADS_F,
    MEASURED_SLEW_S,
    CellGrid,
    cnfet_technology,
)
from ..cells.library import DEFAULT_DRIVE_STRENGTHS, DEFAULT_GATE_SET, build_library
from ..circuit.logical_effort import CellTimingModel, TimingLibrary, analyse_netlist
from ..circuit.netlist import GateNetlist
from ..core.standard_cell import assemble_cell
from ..errors import MappingError
from ..flow.techmap import map_netlist
from ..immunity import montecarlo
from ..immunity.montecarlo import SeedLike, circuit_cell_seed, circuit_survival_draws
from ..logic.functions import standard_gate
from ..obs import trace as obs_trace
from ..runtime.cache import CacheLike, as_cache, with_cache_status
from ..runtime.fingerprint import corner_fingerprint, netlist_context
from ..runtime.scheduler import (execute_corners, plan_delta, resolve_jobs,
                                 run_tasks, shard_indices)
from ..study.results import CircuitCellReport, CircuitStudyResult, Provenance
from .circuits import CircuitLike, resolve_circuit

#: Spawn-key token for the circuit-level yield draws; contains characters
#: a netlist cell name can never contain, so it cannot collide with any
#: per-cell seed.
_YIELD_SEED_NAME = "::yield::"


@dataclass(frozen=True)
class _CellTask:
    """One unit of per-unique-cell work (picklable for the process pool)."""

    kind: str                       # "immunity" | "timing"
    cell: str                       # library cell name, e.g. "NAND2_2X"
    gate: str
    drive: float
    technique: str
    unit_width: float
    trials: int
    cnts_per_trial: int
    max_angle_deg: float
    metallic_fraction: float
    seed: Optional[np.random.SeedSequence]
    vdd: float
    pitch_nm: float


def _run_cell_tasks(shard: Tuple[_CellTask, ...]) -> List[Dict[str, Any]]:
    """Execute one shard of per-cell corners; returns their plain-scalar
    metrics, in order.

    A shard is one immunity corner, or timing corners that one
    :func:`~repro.cells.characterize.measured_timing_models` call
    characterises together — one transient kernel call for the shard.
    The engines are called through their modules (not direct imports) so
    invocation counters installed by tests and benchmarks observe every
    call on the serial and thread backends.
    """
    first = shard[0]
    if first.kind == "timing":
        models = characterize.measured_timing_models(
            [(standard_gate(task.gate), (task.drive,)) for task in shard],
            cnfet_technology(vdd=first.vdd, pitch_nm=first.pitch_nm),
            unit_width=first.unit_width,
        )
        metrics = []
        for task, cell_models in zip(shard, models):
            model = cell_models[task.drive]
            metrics.append({
                "input_capacitance_f": model.input_capacitance,
                "drive_resistance_ohm": model.drive_resistance,
                "parasitic_capacitance_f": model.parasitic_capacitance,
            })
        return metrics
    metrics = []
    for task in shard:
        cell = assemble_cell(
            standard_gate(task.gate),
            technique=task.technique,
            unit_width=task.unit_width,
            drive_strength=task.drive,
        )
        outcome = montecarlo.run_immunity_trials(
            cell,
            trials=task.trials,
            cnts_per_trial=task.cnts_per_trial,
            max_angle_deg=task.max_angle_deg,
            seed=task.seed,
            metallic_fraction=task.metallic_fraction,
        )
        metrics.append({
            "trials": outcome.trials,
            "failures": outcome.failures,
            "failure_rate": outcome.failure_rate,
            "immune": outcome.immune,
        })
    return metrics


def _run_misses(tasks: List[_CellTask], indices: Tuple[int, ...],
                jobs: Optional[int], backend: Optional[str]) -> List[Any]:
    """Run the missing corners ``indices`` of ``tasks``; one payload per
    index, in order.

    Timing corners are split into at most ``jobs`` contiguous shards, one
    kernel call each; every immunity corner is a shard of its own.  All
    shards go through one :func:`run_tasks` map, timing first.
    """
    timing = [i for i in indices if tasks[i].kind == "timing"]
    shards = [tuple(timing[start:stop]) for start, stop
              in shard_indices(len(timing), resolve_jobs(jobs))]
    shards += [(i,) for i in indices if tasks[i].kind == "immunity"]
    outputs = run_tasks(_run_cell_tasks,
                        [tuple(tasks[i] for i in shard) for shard in shards],
                        jobs=jobs, backend=backend)
    payloads = {index: payload for shard, metrics in zip(shards, outputs)
                for index, payload in zip(shard, metrics)}
    return [payloads[index] for index in indices]


def _unique_cells(design) -> "List[Tuple[str, Any, List[Any]]]":
    """``(cell_name, library_cell, instances)`` per distinct mapped cell,
    sorted by cell name so evaluation order never depends on netlist
    construction order."""
    groups: Dict[str, Tuple[Any, List[Any]]] = {}
    for mapped in design.gates:
        entry = groups.setdefault(mapped.cell.name, (mapped.cell, []))
        entry[1].append(mapped.instance)
    return [(name, cell, instances)
            for name, (cell, instances) in sorted(groups.items())]


def run_circuit_study(
    circuit: CircuitLike = "adder:4",
    trials: int = 200,
    seed: SeedLike = 2009,
    cnts_per_trial: int = 4,
    max_angle_deg: float = 15.0,
    metallic_fraction: float = 0.0,
    technique: str = "compact",
    vdd: float = 1.0,
    pitch_nm: float = 5.0,
    unit_width: float = 4.0,
    draws: int = 2000,
    output_load_f: float = 1.0e-15,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache: CacheLike = None,
) -> CircuitStudyResult:
    """Circuit-level yield / delay / energy study of one mapped netlist.

    ``circuit`` is a generator spec (``"adder:8"``), structural Verilog
    text, or a live :class:`~repro.circuit.netlist.GateNetlist`.
    ``cache`` enables per-unique-cell corner reuse (``True``, a path or a
    :class:`~repro.runtime.cache.ResultCache`); ``jobs``/``backend``
    select the scheduler and never change the result.
    """
    netlist, source = resolve_circuit(circuit)
    used_types = sorted({gate.cell_type for gate in netlist.gates})
    unknown = [name for name in used_types if name not in DEFAULT_GATE_SET]
    if unknown:
        raise MappingError(
            f"Circuit {netlist.name!r} uses gate type(s) "
            f"{', '.join(repr(u) for u in unknown)} outside the standard "
            f"library set {DEFAULT_GATE_SET}"
        )
    technology = cnfet_technology(vdd=vdd, pitch_nm=pitch_nm)
    library = build_library(
        gate_names=used_types,
        drive_strengths=DEFAULT_DRIVE_STRENGTHS,
        technique=technique,
        unit_width=unit_width,
        technology=technology,
    )
    design = map_netlist(netlist, library)
    groups = _unique_cells(design)

    tasks: List[_CellTask] = []
    keys: List[str] = []
    for cell_name, cell, _instances in groups:
        cell_seed = circuit_cell_seed(seed, cell_name)
        tasks.append(_CellTask(
            kind="immunity", cell=cell_name, gate=cell.gate.name,
            drive=cell.drive_strength, technique=technique,
            unit_width=unit_width, trials=trials,
            cnts_per_trial=cnts_per_trial, max_angle_deg=max_angle_deg,
            metallic_fraction=metallic_fraction, seed=cell_seed,
            vdd=vdd, pitch_nm=pitch_nm,
        ))
        keys.append(corner_fingerprint(
            "circuit-cell",
            {
                "cell": cell_name, "gate": cell.gate.name,
                "drive": cell.drive_strength, "technique": technique,
                "unit_width": unit_width, "cnts_per_trial": cnts_per_trial,
                "max_angle_deg": max_angle_deg,
                "metallic_fraction": metallic_fraction,
            },
            seed=cell_seed,
            trials=trials,
        ))
        tasks.append(_CellTask(
            kind="timing", cell=cell_name, gate=cell.gate.name,
            drive=cell.drive_strength, technique=technique,
            unit_width=unit_width, trials=trials,
            cnts_per_trial=cnts_per_trial, max_angle_deg=max_angle_deg,
            metallic_fraction=metallic_fraction, seed=None,
            vdd=vdd, pitch_nm=pitch_nm,
        ))
        keys.append(corner_fingerprint(
            "circuit-timing",
            {
                "cell": cell_name, "gate": cell.gate.name,
                "drive": cell.drive_strength, "vdd": vdd,
                "pitch_nm": pitch_nm, "unit_width": unit_width,
                "loads": MEASURED_LOADS_F, "slew": MEASURED_SLEW_S,
            },
            context=CellGrid(
                cell.gate.name, (cell.drive_strength,), MEASURED_LOADS_F,
                (MEASURED_SLEW_S,), (("nominal", technology),),
                unit_width=unit_width,
            ).time_base(),
        ))

    store = as_cache(cache)
    with obs_trace.span("circuit", circuit=netlist.name,
                        instances=len(netlist.gates),
                        unique_cells=len(groups),
                        cached=store is not None):
        cached: Dict[str, Any] = (
            store.get_corners(keys) if store is not None else {}
        )
        plan = plan_delta(keys, set(cached))
        obs_trace.annotate(hits=plan.hits, misses=plan.misses,
                           status=plan.status)
        metrics = execute_corners(
            plan, cached,
            lambda indices: _run_misses(tasks, indices, jobs, backend),
            store, [f"circuit-{task.kind}" for task in tasks],
        )

    reports: List[CircuitCellReport] = []
    failure_by_cell: Dict[str, float] = {}
    timing_library = TimingLibrary(f"circuit-{netlist.name}", vdd=vdd)
    for position, (cell_name, cell, instances) in enumerate(groups):
        immunity = metrics[2 * position]
        timing = metrics[2 * position + 1]
        failure_by_cell[cell_name] = float(immunity["failure_rate"])
        reports.append(CircuitCellReport(
            cell=cell_name,
            gate=cell.gate.name,
            drive_strength=cell.drive_strength,
            instances=len(instances),
            trials=int(immunity["trials"]),
            failures=int(immunity["failures"]),
            failure_rate=float(immunity["failure_rate"]),
            immune=bool(immunity["immune"]),
            input_capacitance_f=float(timing["input_capacitance_f"]),
            drive_resistance_ohm=float(timing["drive_resistance_ohm"]),
            parasitic_capacitance_f=float(timing["parasitic_capacitance_f"]),
        ))
        timing_library.add(CellTimingModel(
            cell_type=cell.gate.name,
            drive_strength=cell.drive_strength,
            input_capacitance=float(timing["input_capacitance_f"]),
            drive_resistance=float(timing["drive_resistance_ohm"]),
            parasitic_capacitance=float(timing["parasitic_capacitance_f"]),
        ))

    # Yield aggregation: every instance of a cell shares that cell's
    # failure probability (independent defects per instance).
    cell_of_instance = {
        instance.name: cell_name
        for cell_name, _cell, instances in groups
        for instance in instances
    }
    instance_probs = [
        failure_by_cell[cell_of_instance[gate.name]] for gate in netlist.gates
    ]
    functional_yield = float(np.prod([1.0 - p for p in instance_probs]))
    defect_counts = circuit_survival_draws(
        instance_probs, draws, circuit_cell_seed(seed, _YIELD_SEED_NAME)
    )
    monte_carlo_yield = (
        float(np.count_nonzero(defect_counts == 0) / draws) if draws else 0.0
    )
    histogram = tuple(
        (int(count), int(freq))
        for count, freq in enumerate(np.bincount(defect_counts))
        if freq > 0
    ) if draws else ()

    # Static timing over the measured models: instances analysed at their
    # *mapped* drive so lookups hit the measured models exactly instead of
    # nearest-drive scaling.
    shadow = GateNetlist(netlist.name)
    for mapped in design.gates:
        shadow.add_gate(
            mapped.instance.name,
            mapped.instance.cell_type,
            mapped.instance.connections,
            mapped.cell.drive_strength,
        )
    shadow.declare_io(netlist.inputs, netlist.outputs)
    path = analyse_netlist(shadow, timing_library, output_load=output_load_f)

    provenance = Provenance.capture(
        "circuit",
        params={
            "circuit": (source if isinstance(circuit, str)
                        and "module" not in circuit
                        else netlist_context(netlist)),
            "trials": trials,
            "seed": seed,
            "cnts_per_trial": cnts_per_trial,
            "max_angle_deg": max_angle_deg,
            "metallic_fraction": metallic_fraction,
            "technique": technique,
            "vdd": vdd,
            "pitch_nm": pitch_nm,
            "unit_width": unit_width,
            "draws": draws,
            "output_load_f": output_load_f,
        },
        engine="circuit",
        seed=seed,
    )
    result = CircuitStudyResult(
        provenance=provenance,
        circuit=netlist.name,
        source=source,
        instances=len(netlist.gates),
        unique_cells=len(groups),
        cells=tuple(reports),
        functional_yield=functional_yield,
        monte_carlo_yield=monte_carlo_yield,
        draws=draws,
        defect_histogram=histogram,
        critical_path_delay_s=path.critical_path_delay,
        critical_path=tuple(path.critical_path),
        output_arrivals_s={
            net: path.arrival_times[net] for net in netlist.outputs
        },
        total_energy_per_cycle_j=path.total_energy_per_cycle,
        total_cell_area_lambda2=design.total_cell_area(),
        vdd=vdd,
        pitch_nm=pitch_nm,
    )
    if store is not None:
        result = with_cache_status(result, plan.status)
    return result
