"""The unified sweep driver: one :class:`SweepSpec` over every engine.

``run_sweep_study`` accepts the same axis specification whichever engine
evaluates it.  The engines are the entries of :data:`ENGINES`, one
:class:`SweepEngine` record each: its axes with their defaults, whether
it is seeded, and **one** ``plan`` function, whose :class:`CornerPlan`
carries every corner's address and seed and the ``run`` that evaluates
any subset of corners.  Every sweep — uncached, cold or warm — takes one
path: plan the corners, fetch the ones the corner store holds, run only
the misses, store them.

* ``engine="immunity"`` — the Monte Carlo immunity engine.  Axes:
  ``gate``, ``technique``, ``cnts_per_trial``, ``max_angle_deg``,
  ``metallic_fraction``.  Grid corners take their child seeds from
  :func:`repro.immunity.montecarlo.sweep_seed_root` in ``(gate, cnts,
  angle, metallic)`` product order, so the Figure 2 seed contract
  (techniques share defect populations, distinct parameter combinations
  get independent child sequences) holds whatever order the spec declares
  its axes in; zip corners follow the same contract via
  :meth:`SweepSpec.seeds`.  :func:`repro.analysis.run_immunity_sweep` is
  this engine with the axes declared in that canonical order.
* ``engine="transient"`` — the batch transient/characterisation engine.
  Axes: ``cell``, ``drive``, ``load_f``, ``slew_s``, ``vdd``,
  ``pitch_nm``.  The corners of one cell form one
  :class:`~repro.cells.characterize.CellGrid` (its technology corners
  span ``vdd × pitch_nm``); a shard is ``(grid, case indices)``,
  integrated on the whole grid's time base
  (:func:`~repro.cells.characterize.characterize_cases`), bit-identical
  to one :func:`~repro.cells.characterize.characterize_sweep` batch.  A
  zip corner is its own one-point grid, on the same path.
* ``engine="circuit"`` — the circuit-level yield/delay/energy study
  (:func:`repro.circuit_study.run_circuit_study`).  Axes: ``circuit``
  (generator spec or Verilog text), ``technique``, ``cnts_per_trial``,
  ``max_angle_deg``, ``metallic_fraction``, ``vdd``, ``pitch_nm``,
  ``draws``.  Each corner is one full circuit study; corners differing
  only in the electrical axes (``vdd``/``pitch_nm``) share one child
  seed, so their defect populations are identical — the circuit-level
  analogue of the Figure 2 technique-sharing contract.

Axes not present in the spec take the engine's fixed defaults, which can
be overridden by keyword (``run_sweep_study(spec, engine="immunity",
gate="NAND3")``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import (Any, Callable, ClassVar, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import StudyError
from .results import Provenance, StudyResult
from .spec import Corner, SweepSpec

#: Axes each engine understands, with their fixed-parameter defaults.
IMMUNITY_AXES: Dict[str, object] = {
    "gate": "NAND2",
    "technique": "compact",
    "cnts_per_trial": 4,
    "max_angle_deg": 15.0,
    "metallic_fraction": 0.0,
}
TRANSIENT_AXES: Dict[str, object] = {
    "cell": "INV",
    "drive": 1.0,
    "load_f": 1.0e-15,
    "slew_s": 5.0e-12,
    "vdd": 1.0,
    "pitch_nm": 5.0,
}
CIRCUIT_AXES: Dict[str, object] = {
    "circuit": "adder:4",
    "technique": "compact",
    "cnts_per_trial": 4,
    "max_angle_deg": 15.0,
    "metallic_fraction": 0.0,
    "vdd": 1.0,
    "pitch_nm": 5.0,
    "draws": 2000,
}

#: Electrical axes whose corners share one defect population (child seed)
#: in the circuit engine, mirroring the Figure 2 technique-sharing
#: contract: changing vdd or pitch must not change which defects land.
_CIRCUIT_SHARE_AXES = ("vdd", "pitch_nm")


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated sweep corner: its bindings plus measured metrics."""

    corner: Any                     # Corner
    metrics: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.metrics[key]


@dataclass(frozen=True)
class SweepStudyResult(StudyResult):
    """The typed result of :func:`run_sweep_study`."""

    study_name: ClassVar[str] = "sweep"

    spec: Optional[SweepSpec] = None
    engine: str = ""
    records: Tuple[SweepRecord, ...] = ()

    def metric(self, name: str) -> List[Any]:
        """One metric across all records, in corner order."""
        return [record.metrics[name] for record in self.records]

    def __str__(self) -> str:
        if not self.records:
            return f"empty {self.engine} sweep"
        # Only scalar metrics make table columns; rich objects (e.g. the
        # full MonteCarloResult) stay reachable via record.metrics.
        metric_names = [
            name for name, value in self.records[0].metrics.items()
            if isinstance(value, (bool, int, float, str))
        ]
        width = max(len("corner"),
                    *(len(record.corner.label()) for record in self.records))
        header = f"{'corner':<{width}} " + " ".join(
            f"{name:>16}" for name in metric_names
        )
        lines = [header, "-" * len(header)]
        for record in self.records:
            cells = []
            for name in metric_names:
                value = record.metrics[name]
                if isinstance(value, bool):
                    cells.append(f"{str(value):>16}")
                elif isinstance(value, float):
                    cells.append(f"{value:>16.6g}")
                else:
                    cells.append(f"{value!s:>16}")
            lines.append(f"{record.corner.label():<{width}} " + " ".join(cells))
        return "\n".join(lines)


def _validate_axes(spec: SweepSpec, engine: "SweepEngine",
                   fixed: Mapping[str, object]) -> None:
    """Reject a sweep whose swept or fixed axes ``engine`` does not
    understand, or that both sweeps and fixes one axis: the fixed value
    would be dropped, yet would still enter the study's fingerprint and
    provenance."""
    unknown = [name for name in spec.axis_names if name not in engine.axes]
    if unknown:
        raise StudyError(
            f"Engine {engine.name!r} does not understand axes {unknown}; "
            f"supported: {sorted(engine.axes)}"
        )
    unknown = [name for name in fixed if name not in engine.axes]
    if unknown:
        raise StudyError(
            f"Engine {engine.name!r} does not understand fixed parameters "
            f"{sorted(unknown)}; supported: {sorted(engine.axes)}"
        )
    clash = sorted(set(fixed) & set(spec.axis_names))
    if clash:
        raise StudyError(
            f"Axes {clash} are both swept and fixed; sweep them or fix "
            f"them, not both"
        )


def _fixed_values(engine: "SweepEngine", spec: SweepSpec,
                  overrides: Mapping[str, object]) -> Dict[str, object]:
    """The resolved value of every axis ``spec`` does not sweep."""
    fixed = dict(engine.axes)
    fixed.update(overrides)
    swept = set(spec.axis_names)
    return {name: value for name, value in fixed.items() if name not in swept}


def _bindings(corner: Corner, constants: Mapping[str, object],
              axes: Sequence[str]) -> Dict[str, object]:
    """The corner's fully-resolved binding over ``axes``: swept values
    from the corner, every other axis from ``constants``."""
    return {name: corner.get(name, constants.get(name)) for name in axes}


def _axis_or_constant(spec: SweepSpec, constants: Mapping[str, object],
                      name: str) -> Tuple[object, ...]:
    if name in spec.axis_names:
        return tuple(spec.axis(name).values)
    return (constants[name],)


def run_sweep_study(spec: SweepSpec, engine: str = "immunity",
                    trials: int = 200, seed=2009,
                    jobs: Optional[int] = None,
                    backend: Optional[str] = None,
                    cache=None,
                    **fixed) -> SweepStudyResult:
    """Evaluate a :class:`SweepSpec` on one of the :data:`ENGINES`.

    ``jobs``/``backend`` route the sweep through the runtime scheduler:
    corners are sharded into contiguous chunks and evaluated over a
    process pool (or threads / serially — see
    :mod:`repro.runtime.scheduler`), with per-corner seeds spawned in the
    parent under the established ``_SWEEP_SPAWN_KEY`` contract, so the
    merged result is **bit-identical** for any ``jobs`` value on every
    engine.

    ``cache`` plugs the content-addressed result store in (a
    :class:`~repro.runtime.cache.ResultCache`, a path, or ``True`` for
    the default store) at **two granularities**: the whole-study envelope
    (an exact re-run returns the stored typed result without touching the
    engines, :func:`~repro.runtime.cache.memoize`) and the individual
    corner.  Every sweep, cached or not, takes one path: plan the corner
    addresses, fetch the ones the store holds (none without a store), run
    only the misses, store them — so an axis-extension re-run costs
    O(delta), not O(grid).  Either way the returned result is
    bit-identical to a cold uncached run, and provenance records
    ``cache="hit"`` / ``"miss"`` / ``"partial:<hits>/<corners>"`` (``None``
    without a store).  Scheduling parameters never enter the fingerprints
    or provenance — they cannot change the result.
    """
    if not isinstance(spec, SweepSpec):
        raise StudyError(f"run_sweep_study needs a SweepSpec, got {type(spec).__name__}")
    record = sweep_engine(engine)
    _validate_axes(spec, record, fixed)
    # Imported lazily: the runtime layer sits on top of the study layer.
    from ..obs import trace as obs_trace
    from ..runtime.cache import as_cache, memoize
    from ..runtime.fingerprint import sweep_fingerprint
    from ..runtime.scheduler import resolve_jobs

    store = as_cache(cache)
    if record.seeded and seed is None:
        # seed=None asks for fresh OS entropy — a deliberately
        # nondeterministic run.  Caching it would serve a stale random
        # draw as a "hit", so the cache is bypassed entirely.
        store = None
    with obs_trace.span(f"sweep:{engine}", engine=engine, mode=spec.mode,
                        corners=len(spec.corners()), trials=trials,
                        cached=store is not None):
        return memoize(
            store, lambda: sweep_fingerprint(spec, engine, trials, seed, fixed),
            lambda: _run_sweep(spec, record, trials, seed, fixed, store,
                               resolve_jobs(jobs), backend),
        )


# ---------------------------------------------------------------------------
# The one sweep path: plan, fetch, run the misses, store
# ---------------------------------------------------------------------------

def _plan_sweep(spec: SweepSpec, engine: "SweepEngine", trials: int, seed,
                fixed: Mapping[str, object], store):
    """``(corners, cached, plan)`` — the engine's :class:`CornerPlan` of
    the sweep (one corner fingerprint and, for a seeded engine, one child
    seed per corner, in corner order), the corner payloads ``store``
    already holds (none without a store) and the
    :class:`~repro.runtime.scheduler.DeltaPlan` over the fingerprints.

    The key hashes the corner's **fully-resolved** binding (every engine
    axis, swept or fixed), so it is invariant under which axes the spec
    declares, their declaration order, dict-key order and NumPy-vs-Python
    scalar spellings — plus the engine-specific state the corner's result
    depends on (see each engine's ``plan``):

    * **immunity**: the corner's pre-spawned child ``SeedSequence``
      (value, not position) and the trial count.  A grid extension that
      reassigns spawn positions changes the hashed seed and correctly
      misses, while one that preserves them (extending the gate axis, or
      any axis whose canonical predecessors are singletons) keeps every
      old corner's address stable.
    * **transient**: the shared time base
      (:meth:`repro.cells.characterize.CellGrid.time_base`) of the grid
      the corner's waveform was integrated on.  A grid reshape that moves
      the time base changes every affected address (recompute — exactly
      what bit-identity demands); one that leaves the analytical envelope
      alone keeps the stored corners valid.
    * **circuit**: the child seed, trial count and the *resolved* netlist
      structure of the corner's circuit.
    """
    from ..runtime.scheduler import plan_delta

    corners = engine.plan(spec, _fixed_values(engine, spec, fixed), seed,
                          trials)
    cached = store.get_corners(corners.keys) if store is not None else {}
    return corners, cached, plan_delta(corners.keys, set(cached))


def _run_sweep(spec: SweepSpec, engine: "SweepEngine", trials: int, seed,
               fixed: Mapping[str, object], store, jobs: int,
               backend: Optional[str]) -> SweepStudyResult:
    """Plan the sweep, run only the corners ``store`` lacks (every corner
    without a store), write them back, merge.  The result is
    bit-identical whatever the store held; its provenance records the
    plan's status."""
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace
    from ..runtime.cache import with_cache_status
    from ..runtime.scheduler import execute_corners

    with obs_trace.span("sweep.plan", corners=len(spec)):
        corners, cached, plan = _plan_sweep(spec, engine, trials, seed,
                                            fixed, store)
        obs_trace.annotate(hits=plan.hits, misses=plan.misses,
                           status=plan.status)
    obs_metrics.registry().inc("sweep.corners_planned", plan.total)
    obs_metrics.registry().inc("sweep.corners_cached", plan.hits)
    obs_metrics.registry().inc("sweep.corners_executed", plan.misses)

    def run(indices):
        with obs_trace.span("sweep.execute", corners=len(indices),
                            engine=engine.name):
            return corners.run(indices, jobs, backend)

    metrics = execute_corners(plan, cached, run, store,
                              [engine.name] * plan.total)
    result = SweepStudyResult(
        provenance=Provenance.capture(
            "sweep", engine=engine.name, seed=seed,
            params={"axes": {axis.name: axis.values for axis in spec.axes},
                    "mode": spec.mode, "trials": trials, "seed": seed,
                    **fixed},
        ),
        spec=spec,
        engine=engine.name,
        records=tuple(
            SweepRecord(corner=corner, metrics=corner_metrics)
            for corner, corner_metrics in zip(spec.corners(), metrics)
        ),
    )
    return with_cache_status(result, plan.status)


@dataclass(frozen=True)
class CornerPlan:
    """One engine's plan of one sweep, built once per sweep.

    ``keys[i]`` is corner ``i``'s fingerprint and ``seeds[i]`` its
    pre-spawned child seed (``seeds`` is ``None`` for a deterministic
    engine).  ``run(indices, jobs, backend)`` evaluates the corners at
    ``indices`` on the bindings, seeds and grids the plan resolved, and
    returns their metrics in ``indices`` order — for a cold sweep and a
    delta recompute alike.
    """

    keys: Tuple[str, ...]
    seeds: Optional[Tuple[np.random.SeedSequence, ...]]
    run: Callable[[Sequence[int], int, Optional[str]], List[Dict[str, Any]]]


# ---------------------------------------------------------------------------
# Seeded engines: immunity and circuit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SeededShard:
    """A picklable chunk of seeded corners: resolved bindings plus the
    pre-spawned child seeds, evaluated one corner at a time by the
    module-level ``evaluate`` (pickled by reference)."""

    evaluate: Callable[[Dict[str, object], np.random.SeedSequence, int],
                       Dict[str, Any]]
    values: Tuple[Dict[str, object], ...]
    seeds: Tuple[np.random.SeedSequence, ...]
    trials: int


def _run_seeded_shard(shard: _SeededShard) -> List[Dict[str, Any]]:
    """Worker: evaluate one shard's corners (module-level for pickling)."""
    return [shard.evaluate(values, child, shard.trials)
            for values, child in zip(shard.values, shard.seeds)]


def _execute_seeded(evaluate, values: Sequence[Dict[str, object]],
                    seeds: Sequence[np.random.SeedSequence], trials: int,
                    indices: Sequence[int], jobs: int,
                    backend: Optional[str]) -> List[Dict[str, Any]]:
    """A seeded plan's ``run``: the corners at ``indices``, with their
    resolved bindings and pre-spawned seeds, in contiguous shards over
    the scheduler; metrics in ``indices`` order.  Seeds are spawned per
    corner in the parent, never per worker, so any sharding is
    bit-identical."""
    from ..runtime.scheduler import plan_shards, run_tasks

    chosen = [values[index] for index in indices]
    children = [seeds[index] for index in indices]
    shards = [
        _SeededShard(evaluate=evaluate, values=tuple(chosen[start:stop]),
                     seeds=tuple(children[start:stop]), trials=trials)
        for start, stop in plan_shards(len(chosen), jobs)
    ]
    per_shard = run_tasks(_run_seeded_shard, shards, jobs=jobs,
                          backend=backend)
    return [metrics for chunk in per_shard for metrics in chunk]


def _immunity_corner(values: Mapping[str, object],
                     seed: np.random.SeedSequence,
                     trials: int) -> Dict[str, Any]:
    """One immunity corner: Monte Carlo trials of the assembled gate."""
    from ..core.standard_cell import assemble_cell
    from ..immunity.montecarlo import run_immunity_trials
    from ..logic.functions import standard_gate

    cell = assemble_cell(standard_gate(values["gate"]),
                         technique=values["technique"])
    result = run_immunity_trials(
        cell,
        trials=trials,
        cnts_per_trial=values["cnts_per_trial"],
        max_angle_deg=values["max_angle_deg"],
        metallic_fraction=values["metallic_fraction"],
        seed=seed,
    )
    return {
        "failure_rate": result.failure_rate,
        "failures": result.failures,
        "trials": result.trials,
        "immune": result.immune,
        "result": result,
    }


def _immunity_seeds(spec: SweepSpec, constants: Mapping[str, object],
                    values: Sequence[Mapping[str, object]],
                    seed) -> Tuple[np.random.SeedSequence, ...]:
    """One child :class:`~numpy.random.SeedSequence` per immunity corner
    (``values`` are the corners' resolved bindings).

    Grid mode spawns children from :func:`~repro.immunity.montecarlo.
    sweep_seed_root` in ``(gate, cnts, angle, metallic)`` product order,
    and corners differing only in ``technique`` share one child (grid
    axes never repeat a value, so each combination names one child).  Zip
    mode is :meth:`SweepSpec.seeds` with ``share_axes=("technique",)``.
    """
    if spec.mode != "grid":
        return tuple(spec.seeds(seed, share_axes=("technique",)))
    from ..immunity.montecarlo import sweep_seed_root

    combo_axes = ("gate", "cnts_per_trial", "max_angle_deg",
                  "metallic_fraction")
    combos = list(itertools.product(
        *(_axis_or_constant(spec, constants, name) for name in combo_axes)
    ))
    by_combo = dict(zip(combos, sweep_seed_root(seed).spawn(len(combos))))
    return tuple(by_combo[tuple(binding[name] for name in combo_axes)]
                 for binding in values)


def _plan_immunity(spec: SweepSpec, constants: Mapping[str, object], seed,
                   trials: int) -> CornerPlan:
    from ..runtime.fingerprint import corner_fingerprint

    values = [_bindings(corner, constants, IMMUNITY_AXES)
              for corner in spec.corners()]
    seeds = _immunity_seeds(spec, constants, values, seed)
    return CornerPlan(
        keys=tuple(corner_fingerprint("immunity", binding, seed=child,
                                      trials=trials)
                   for binding, child in zip(values, seeds)),
        seeds=seeds,
        run=functools.partial(_execute_seeded, _immunity_corner, values,
                              seeds, trials),
    )


def _circuit_corner(values: Mapping[str, object],
                    seed: np.random.SeedSequence,
                    trials: int) -> Dict[str, Any]:
    """One circuit corner: a full, uncached, serial inner study —
    parallelism and caching belong to the sweep driver.  The corner
    payload keeps only the scalars the corner table plots; the full typed
    result stays reachable through ``run_study("circuit", ...)``."""
    from ..circuit_study import study as circuit_engine

    result = circuit_engine.run_circuit_study(
        values["circuit"],
        trials=trials,
        seed=seed,
        cnts_per_trial=values["cnts_per_trial"],
        max_angle_deg=values["max_angle_deg"],
        metallic_fraction=values["metallic_fraction"],
        technique=values["technique"],
        vdd=values["vdd"],
        pitch_nm=values["pitch_nm"],
        draws=int(values["draws"]),
    )
    return {
        "functional_yield": result.functional_yield,
        "monte_carlo_yield": result.monte_carlo_yield,
        "critical_path_delay_s": result.critical_path_delay_s,
        "total_energy_per_cycle_j": result.total_energy_per_cycle_j,
        "total_cell_area_lambda2": result.total_cell_area_lambda2,
        "instances": result.instances,
        "unique_cells": result.unique_cells,
    }


def _plan_circuit(spec: SweepSpec, constants: Mapping[str, object], seed,
                  trials: int) -> CornerPlan:
    from ..circuit_study.circuits import resolve_circuit
    from ..runtime.fingerprint import corner_fingerprint, netlist_context

    values = [_bindings(corner, constants, CIRCUIT_AXES)
              for corner in spec.corners()]
    seeds = tuple(spec.seeds(seed, share_axes=_CIRCUIT_SHARE_AXES))
    # The corner's circuit enters the address through the *resolved*
    # netlist structure (the context), not through how it was spelled —
    # so a generator spec and the Verilog text it round-trips through
    # share corners, while any rewiring misses.  Resolved once per
    # distinct circuit value, not per corner.
    contexts: Dict[object, object] = {}
    keys = []
    for binding, child in zip(values, seeds):
        circuit = binding["circuit"]
        if circuit not in contexts:
            contexts[circuit] = netlist_context(resolve_circuit(circuit)[0])
        params = {name: value for name, value in binding.items()
                  if name != "circuit"}
        keys.append(corner_fingerprint("circuit", params, seed=child,
                                       trials=trials,
                                       context=contexts[circuit]))
    return CornerPlan(
        keys=tuple(keys), seeds=seeds,
        run=functools.partial(_execute_seeded, _circuit_corner, values,
                              seeds, trials),
    )


# ---------------------------------------------------------------------------
# Transient / characterisation engine
# ---------------------------------------------------------------------------

def _transient_metrics(point) -> Dict[str, Any]:
    return {
        "delay_rise_s": point.delay_rise_s,
        "delay_fall_s": point.delay_fall_s,
        "worst_delay_s": point.worst_delay_s,
        "energy_per_cycle_j": point.energy_per_cycle_j,
        "vdd": point.vdd,
    }


def _corner_name(vdd: float, pitch_nm: float) -> str:
    # repr, not a rounded format: supplies (or pitches) that agree to six
    # significant digits are still distinct technology corners.
    return f"v{vdd!r}_p{pitch_nm!r}"


#: The transient axes that span a cell's grid, in flat-index order.
_GRID_AXES = ("drive", "load_f", "slew_s", "vdd", "pitch_nm")


def _transient_grids(spec: SweepSpec, constants: Mapping[str, object],
                     values: Sequence[Mapping[str, object]]
                     ) -> Tuple[List[Any], List[Tuple[int, int]]]:
    """``(grids, placement)``: one :class:`~repro.cells.characterize.
    CellGrid` per distinct grid, and per corner (``values`` are the
    corners' resolved bindings) the position of the grid it is
    integrated on and its flat case index there.

    A grid-mode corner belongs to its cell's full grid; a zip corner is
    its own one-point grid, at 0.  The grid's technology corners span
    ``vdd × pitch_nm``."""
    from ..cells.characterize import CellGrid, cnfet_technology

    shared = [_axis_or_constant(spec, constants, name) for name in _GRID_AXES]
    grids: List[CellGrid] = []
    positions: Dict[Tuple[object, ...], int] = {}
    placement: List[Tuple[int, int]] = []
    for binding in values:
        axes = ([(binding[name],) for name in _GRID_AXES]
                if spec.mode == "zip" else shared)
        key = (binding["cell"], *axes)
        if key not in positions:
            drives, loads, slews, vdds, pitches = axes
            positions[key] = len(grids)
            grids.append(CellGrid(
                str(binding["cell"]), drives, loads, slews,
                tuple((_corner_name(vdd, pitch),
                       cnfet_technology(vdd=vdd, pitch_nm=pitch))
                      for vdd, pitch in itertools.product(vdds, pitches)),
            ))
        flat = np.ravel_multi_index(
            tuple(axis.index(binding[name])
                  for name, axis in zip(_GRID_AXES, axes)),
            tuple(len(axis) for axis in axes),
        )
        placement.append((positions[key], int(flat)))
    return grids, placement


def _run_transient_shard(shard) -> List[Dict[str, Any]]:
    """Worker: integrate the ``(grid, case indices)`` of one shard
    (module-level for pickling)."""
    from ..cells.characterize import characterize_cases

    return [_transient_metrics(point) for point in characterize_cases(*shard)]


def _execute_transient(grids: Sequence[Any],
                       placement: Sequence[Tuple[int, int]],
                       indices: Sequence[int], jobs: int,
                       backend: Optional[str]) -> List[Dict[str, Any]]:
    """The transient plan's ``run``: the corners at ``indices``; metrics
    in ``indices`` order.

    The corners are grouped by grid and each shard integrates only its
    cases on the **whole** grid's time base, so a subset run — a delta
    recompute as much as a parallel shard — lands on bit-identical
    waveforms to one batch over the whole grid.  At ``jobs=1`` that is
    one shard per grid.
    """
    from ..runtime.scheduler import run_tasks, shard_indices

    by_grid: Dict[int, List[Tuple[int, int]]] = {}
    for position, index in enumerate(indices):
        grid_index, flat = placement[index]
        by_grid.setdefault(grid_index, []).append((position, flat))

    tasks: List[Tuple[Any, Tuple[int, ...]]] = []
    owners: List[List[int]] = []
    for grid_index, pairs in by_grid.items():
        # One shard per worker, no oversubscription: every shard of a
        # grid needs the grid's time base, which is O(grid) to derive.
        for start, stop in shard_indices(len(pairs), jobs):
            chunk = pairs[start:stop]
            tasks.append((grids[grid_index],
                          tuple(flat for _, flat in chunk)))
            owners.append([position for position, _ in chunk])
    per_shard = run_tasks(_run_transient_shard, tasks, jobs=jobs,
                          backend=backend)
    flat_metrics: List[Optional[Dict[str, Any]]] = [None] * len(indices)
    for owner, metrics_list in zip(owners, per_shard):
        for position, metrics in zip(owner, metrics_list):
            flat_metrics[position] = metrics
    return flat_metrics


def _plan_transient(spec: SweepSpec, constants: Mapping[str, object], seed,
                    trials: int) -> CornerPlan:
    """The deterministic engine's plan (``seed``/``trials`` are unused):
    every corner of a grid carries its grid's time base as context."""
    from ..runtime.fingerprint import corner_fingerprint

    values = [_bindings(corner, constants, TRANSIENT_AXES)
              for corner in spec.corners()]
    grids, placement = _transient_grids(spec, constants, values)
    return CornerPlan(
        keys=tuple(corner_fingerprint("transient", binding,
                                      context=grids[grid_index].time_base())
                   for binding, (grid_index, _) in zip(values, placement)),
        seeds=None,
        run=functools.partial(_execute_transient, grids, placement),
    )


# ---------------------------------------------------------------------------
# The engine table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEngine:
    """One sweep engine: its axes, whether its corners take seeds, and
    how to plan them.

    ``plan(spec, constants, seed, trials)`` returns the sweep's
    :class:`CornerPlan` — every corner's fingerprint and child seed, and
    the ``run`` that evaluates any subset of corners — building each
    corner's bindings, seeds, grids and netlist contexts once.
    ``constants`` are the resolved values of every unswept axis.  A
    ``seeded`` engine's sweep takes a ``seed`` and ``trials``.
    """

    name: str
    axes: Mapping[str, object]          # every axis, with its default
    seeded: bool
    plan: Callable[..., CornerPlan]


#: Every sweep engine ``run_sweep_study`` (and the CLI, manifests and the
#: service behind it) accepts, by name.
ENGINES: Dict[str, SweepEngine] = {
    engine.name: engine for engine in (
        SweepEngine("immunity", IMMUNITY_AXES, True, _plan_immunity),
        SweepEngine("transient", TRANSIENT_AXES, False, _plan_transient),
        SweepEngine("circuit", CIRCUIT_AXES, True, _plan_circuit),
    )
}


def sweep_engine(name: str) -> SweepEngine:
    """The :data:`ENGINES` entry called ``name``."""
    try:
        return ENGINES[name]
    except (KeyError, TypeError):
        raise StudyError(
            f"Unknown sweep engine {name!r}; use one of "
            f"{', '.join(repr(known) for known in ENGINES)}"
        ) from None
