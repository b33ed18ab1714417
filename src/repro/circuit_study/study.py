"""The circuit-study engine: per-unique-cell analysis, circuit aggregation.

``run_circuit_study`` is the end-to-end composition the ROADMAP's
"synthesized-circuit immunity at scale" item asks for:

1. resolve the circuit (Verilog / generator spec / live netlist) and map
   it onto the generated CNFET standard-cell library;
2. for every **unique** mapped cell — not every instance — run one Monte
   Carlo immunity analysis (failure probability under the chosen defect
   parameters) on the layout the library already assembled, and one
   measured-timing characterisation (waveform-fitted R/C model); an
   8-bit ripple-carry adder has 72 instances but only two unique cells,
   so this is where the study earns its throughput.  The timing corners
   a run misses are one group, characterised together: one transient
   kernel call per circuit (per shard when ``jobs > 1``);
3. aggregate to circuit level: analytic and Monte Carlo functional
   yield over defect draws, static-timing critical-path delay through
   the mapped netlist using the measured models, and total switching
   energy per cycle.

Per-unique-cell work is content-addressed in the corner store (two
corners per cell: ``circuit-timing``, and the ``circuit-cell`` immunity
address, stored under the tag ``circuit-immunity``) with seeds derived
from the cell *name* alone — so a warm store serves adder cells to a
comparator run, and a grid extension recomputes only the new cells
(``provenance.cache == "partial:<h>/<n>"``), on the sweeps' pipeline
(:class:`~repro.runtime.scheduler.DeltaPlan`).

Determinism: per-cell seeds are pre-derived (:func:`~repro.immunity.
montecarlo.circuit_cell_seed`), shard outputs are merged by corner index,
and execution parameters are excluded from provenance — serial and
threaded runs produce bit-identical results.
"""

from __future__ import annotations

import functools
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
from ..errors import MappingError
from ..flow.techmap import map_netlist
from ..immunity import montecarlo
from ..immunity.montecarlo import SeedLike, circuit_cell_seed, circuit_survival_draws
from ..obs import trace as obs_trace
from ..runtime.cache import CacheLike, as_cache, with_cache_status
from ..runtime.fingerprint import corner_fingerprint, netlist_context
from ..runtime.scheduler import plan_delta, run_tasks
from ..study.results import CircuitCellReport, CircuitStudyResult, Provenance
from .circuits import CircuitLike, resolve_circuit

#: Spawn-key token for the circuit-level yield draws; contains characters
#: a netlist cell name can never contain, so it cannot collide with any
#: per-cell seed.
_YIELD_SEED_NAME = "::yield::"


def _immunity_metrics(layout, **trial_params) -> List[Dict[str, Any]]:
    """One ``circuit-cell`` corner: Monte Carlo immunity of a library
    cell's layout."""
    outcome = montecarlo.run_immunity_trials(layout, **trial_params)
    return [{
        "trials": outcome.trials,
        "failures": outcome.failures,
        "failure_rate": outcome.failure_rate,
        "immune": outcome.immune,
    }]


def _timing_metrics(cells: List[Tuple[Any, Tuple[float]]], technology,
                    unit_width: float) -> List[Dict[str, Any]]:
    """``circuit-timing`` corners of ``(gate, (drive,))`` cells, all
    characterised by one :func:`~repro.cells.characterize.
    measured_timing_models` call — one transient kernel call."""
    models = characterize.measured_timing_models(
        cells, technology, unit_width=unit_width,
    )
    metrics = []
    for (_, (drive,)), cell_models in zip(cells, models):
        model = cell_models[drive]
        metrics.append({
            "input_capacitance_f": model.input_capacitance,
            "drive_resistance_ohm": model.drive_resistance,
            "parasitic_capacitance_f": model.parasitic_capacitance,
        })
    return metrics


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
    cache: CacheLike = None,
) -> CircuitStudyResult:
    """Circuit-level yield / delay / energy study of one mapped netlist.

    ``circuit`` is a generator spec (``"adder:8"``), structural Verilog
    text, or a live :class:`~repro.circuit.netlist.GateNetlist`.
    ``cache`` enables per-unique-cell corner reuse (``True``, a path or a
    :class:`~repro.runtime.cache.ResultCache`); ``jobs`` sets the
    scheduler's width and never changes the result.
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
    cells = sorted({mapped.cell.name: mapped.cell
                    for mapped in design.gates}.values(),
                   key=lambda cell: cell.name)
    seeds = [circuit_cell_seed(seed, cell.name) for cell in cells]

    # A block of timing corners, then one of immunity corners, in cell
    # order.  The timing corners are one group, seen first so its shards
    # run first; each immunity corner's group is its cell's position.
    keys = [corner_fingerprint(
        "circuit-timing",
        {
            "cell": cell.name, "gate": cell.gate.name,
            "drive": cell.drive_strength, "vdd": vdd,
            "pitch_nm": pitch_nm, "unit_width": unit_width,
            "loads": MEASURED_LOADS_F, "slew": MEASURED_SLEW_S,
        },
        context=CellGrid(
            cell.gate.name, (cell.drive_strength,), MEASURED_LOADS_F,
            (MEASURED_SLEW_S,), (("nominal", technology),),
            unit_width=unit_width,
        ).time_base(),
    ) for cell in cells]
    keys += [corner_fingerprint(
        "circuit-cell",
        {
            "cell": cell.name, "gate": cell.gate.name,
            "drive": cell.drive_strength, "technique": technique,
            "unit_width": unit_width, "cnts_per_trial": cnts_per_trial,
            "max_angle_deg": max_angle_deg,
            "metallic_fraction": metallic_fraction,
        },
        seed=cell_seed,
        trials=trials,
    ) for cell, cell_seed in zip(cells, seeds)]
    groups = ["timing"] * len(cells) + list(range(len(cells)))

    def task(shard: Tuple[int, ...]):
        """A shard's call: one kernel call over timing corners, or one
        immunity corner.  The engines are called through their modules,
        so counters installed by tests and benchmarks observe every
        call."""
        group = groups[shard[0]]
        if group == "timing":
            return functools.partial(
                _timing_metrics,
                [(cells[i].gate, (cells[i].drive_strength,)) for i in shard],
                technology, unit_width,
            )
        return functools.partial(
            _immunity_metrics, cells[group].layout,
            trials=trials, cnts_per_trial=cnts_per_trial,
            max_angle_deg=max_angle_deg, seed=seeds[group],
            metallic_fraction=metallic_fraction,
        )

    store = as_cache(cache)
    with obs_trace.span("circuit", circuit=netlist.name,
                        instances=len(netlist.gates),
                        unique_cells=len(cells),
                        cached=store is not None):
        cached: Dict[str, Any] = (
            store.get_corners(keys) if store is not None else {}
        )
        plan = plan_delta(keys, set(cached))
        obs_trace.annotate(hits=plan.hits, misses=plan.misses,
                           status=plan.status)
        shards = plan.shards(groups, jobs)
        outputs = run_tasks([task(shard) for shard in shards], jobs=jobs)
        metrics = plan.merge(
            cached, shards, outputs, store,
            ["circuit-timing"] * len(cells)
            + ["circuit-immunity"] * len(cells),
        )

    reports: List[CircuitCellReport] = []
    failure_by_cell: Dict[str, float] = {}
    usage = design.cell_usage()
    timing_library = TimingLibrary(f"circuit-{netlist.name}", vdd=vdd)
    for cell, timing, immunity in zip(cells, metrics[:len(cells)],
                                      metrics[len(cells):]):
        failure_by_cell[cell.name] = float(immunity["failure_rate"])
        reports.append(CircuitCellReport(
            cell=cell.name,
            gate=cell.gate.name,
            drive_strength=cell.drive_strength,
            instances=usage[cell.name],
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
    # failure probability (independent defects per instance), in netlist
    # order.
    instance_probs = [failure_by_cell[mapped.cell.name]
                      for mapped in design.gates]
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
        unique_cells=len(cells),
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
