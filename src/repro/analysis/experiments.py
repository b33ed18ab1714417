"""Experiment runners: one function per table/figure of the paper.

Each ``run_*`` function regenerates one evaluation artefact and returns a
**typed** :class:`~repro.study.results.StudyResult` subclass.  Its payload
is derived from the result class's fields by one rule (see
:mod:`repro.study.results`): ``to_dict()`` holds every field in field
order, with tuples as lists and sweep points as dicts, and the Mapping
protocol reads from it, so ``result["optimal"]["delay_gain"]`` and
``result.optimal.delay_gain`` agree.  ``str(result)`` renders the report
and ``to_json()`` serializes the result with its provenance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..cells.characterize import (
    TechnologyConfig,
    characterize_sweep,
    cmos_technology,
    cnfet_technology,
    format_characterization,
)
from ..circuit.fo4 import compare_fo4, fo4_transient_sweep
from ..circuit.inverter import cmos_inverter, cnfet_inverter
from ..core.area import format_table1, inverter_area_gain, table1
from ..core.compact import compact_network_layout
from ..core.sizing import size_gate
from ..core.standard_cell import assemble_cell
from ..devices.calibration import (
    CMOS_NMOS_WIDTH_NM,
    CMOS_PMOS_WIDTH_NM,
    FO4_GATE_WIDTH_NM,
    calibrated_cnfet_parameters,
    paper_anchors,
)
from ..errors import StudyError
from ..flow.designkit import CNFETDesignKit
from ..flow.verilog import full_adder_netlist
from ..immunity.montecarlo import (
    SeedLike,
    SweepPoint,
    compare_techniques,
    format_comparison,
    format_sweep,
)
from ..logic.functions import aoi31, standard_gate
from ..study.results import (
    CharacterizationResult,
    EdpSummaryResult,
    Fig2ImmunityResult,
    Fig3Result,
    Fig4Result,
    Fig7Result,
    FO4GainPoint,
    FO4TransientPoint,
    Fo4TransientResult,
    FullAdderResult,
    ImmunitySweepResult,
    PitchSensitivityResult,
    Provenance,
    Table1Result,
)
from ..study.spec import SweepSpec
from ..study.sweeps import run_sweep_study
from .metrics import GainReport, TechnologyFigures

#: The study runners; :mod:`repro.study.registry` reads each one,
#: ``run_circuit_study`` included, as an attribute of this module.
__all__ = [
    "run_characterization", "run_circuit_study", "run_edp_summary",
    "run_fig2_immunity", "run_fig3_nand3", "run_fig4_aoi31", "run_fig7_fo4",
    "run_fo4_transient_sweep", "run_fulladder_case_study",
    "run_immunity_sweep", "run_pitch_sensitivity", "run_table1",
]


# ---------------------------------------------------------------------------
# E1 / E2 — Table 1 and the Figure 3 NAND3 walk-through
# ---------------------------------------------------------------------------

def run_table1() -> Table1Result:
    """Regenerate Table 1 (area saving of the compact vs baseline layouts)."""
    rows = table1()
    return Table1Result(
        provenance=Provenance.capture("table1", params={}),
        rows=tuple(rows),
        formatted=format_table1(rows),
        mean_absolute_error=_mean_absolute_error(rows),
    )


def _mean_absolute_error(rows) -> float:
    errors = [row.error_vs_paper for row in rows if row.error_vs_paper is not None]
    return sum(errors) / len(errors) if errors else 0.0


def run_fig3_nand3(unit_width: float = 4.0) -> Fig3Result:
    """The Figure 3 NAND3 compaction number (paper: 16.67 % at 4 λ)."""
    from ..core.area import area_saving

    row = area_saving(standard_gate("NAND3"), unit_width)
    return Fig3Result(
        provenance=Provenance.capture("fig3", params={"unit_width": unit_width}),
        unit_width=unit_width,
        baseline_area=row.baseline_area,
        compact_area=row.compact_area,
        measured_saving=row.measured_saving,
        paper_saving=paper_anchors().nand3_area_saving_4lambda,
    )


# ---------------------------------------------------------------------------
# E3 — Figure 2: mispositioned-CNT immunity
# ---------------------------------------------------------------------------

def run_fig2_immunity(gate_name: str = "NAND2", trials: int = 200,
                      cnts_per_trial: int = 4,
                      seed: SeedLike = 2009) -> Fig2ImmunityResult:
    """Monte Carlo immunity of the vulnerable / baseline / compact layouts.

    Every technique is attacked by the same defect populations (shared
    seed) on the batched engine.
    """
    results = compare_techniques(
        gate_name, trials=trials, cnts_per_trial=cnts_per_trial, seed=seed,
    )
    return Fig2ImmunityResult(
        provenance=Provenance.capture(
            "fig2", engine="batch", seed=seed,
            params=dict(gate_name=gate_name, trials=trials,
                        cnts_per_trial=cnts_per_trial, seed=seed),
        ),
        gate=gate_name,
        results=results,
        formatted=format_comparison(results),
        vulnerable_failure_rate=results["vulnerable"].failure_rate,
        baseline_immune=results["baseline"].immune,
        compact_immune=results["compact"].immune,
    )


def run_immunity_sweep(
    gates: Sequence[str] = ("NAND2", "NAND3"),
    techniques: Sequence[str] = ("vulnerable", "baseline", "compact"),
    cnts_per_trial: Sequence[int] = (2, 4, 8),
    max_angle_deg: Sequence[float] = (15.0,),
    metallic_fraction: Sequence[float] = (0.0,),
    trials: int = 200,
    seed: SeedLike = 2009,
    jobs: Optional[int] = None,
) -> ImmunitySweepResult:
    """Failure rate across defect density / alignment / metallic residue.

    The batched extension of the Figure 2 experiment: instead of one
    (technique × gate) table it explores the whole defect-parameter grid on
    the immunity sweep engine (optionally across a process pool) and
    reports where each layout technique stops being immune.  Points come
    in ``gate × cnts × angle × metallic × technique`` product order, and
    techniques at one parameter combination share its defect populations.
    """
    spec = SweepSpec.from_mapping({
        "gate": gates, "cnts_per_trial": cnts_per_trial,
        "max_angle_deg": max_angle_deg,
        "metallic_fraction": metallic_fraction, "technique": techniques,
    })
    study = run_sweep_study(spec, engine="immunity", trials=trials,
                            seed=seed, jobs=jobs)
    points = [
        SweepPoint(result=record.metrics["result"], **record.corner.as_dict())
        for record in study.records
    ]
    worst: Dict[str, float] = {}
    for point in points:
        worst[point.technique] = max(
            worst.get(point.technique, 0.0), point.failure_rate
        )
    return ImmunitySweepResult(
        provenance=Provenance.capture(
            "immunity_sweep", engine="batch", seed=seed,
            params=dict(gates=tuple(gates), techniques=tuple(techniques),
                        cnts_per_trial=tuple(cnts_per_trial),
                        max_angle_deg=tuple(max_angle_deg),
                        metallic_fraction=tuple(metallic_fraction),
                        trials=trials, seed=seed),
        ),
        points=tuple(points),
        formatted=format_sweep(points),
        worst_failure_rate_by_technique=worst,
        compact_always_immune=worst.get("compact", 0.0) == 0.0,
    )


# ---------------------------------------------------------------------------
# E4 — Figure 4: the AOI31 generalised layout
# ---------------------------------------------------------------------------

def run_fig4_aoi31(unit_width: float = 4.0) -> Fig4Result:
    """Generate the AOI31 compact layouts (basic and width-balanced)."""
    gate = aoi31()
    sizing = size_gate(gate, unit_width)
    pun = compact_network_layout(gate.pun, gate.pun_tree, unit_width)
    pdn = compact_network_layout(gate.pdn, gate.pdn_tree, unit_width)
    cell_s1 = assemble_cell(gate, scheme=1, unit_width=unit_width)
    cell_s2 = assemble_cell(gate, scheme=2, unit_width=unit_width)
    return Fig4Result(
        provenance=Provenance.capture("fig4", params={"unit_width": unit_width}),
        gate=gate.name,
        pun_contacts=pun.contact_count,
        pun_gates=pun.gate_count,
        pdn_contacts=pdn.contact_count,
        pdn_gates=pdn.gate_count,
        pun_width_factors=tuple(sorted(set(sizing.pun_widths.values()))),
        pdn_width_factors=tuple(sorted(set(sizing.pdn_widths.values()))),
        scheme1_area=cell_s1.area,
        scheme2_area=cell_s2.area,
        requires_etched_regions=pun.etch_count + pdn.etch_count,
    )


# ---------------------------------------------------------------------------
# E5 — Figure 7 / Case study 1: FO4 gains vs number of CNTs
# ---------------------------------------------------------------------------

def run_fig7_fo4(max_tubes: int = 20, gate_width_nm: float = FO4_GATE_WIDTH_NM,
                 vdd: float = 1.0) -> Fig7Result:
    """Sweep the number of CNTs per device at fixed gate width (Figure 7)."""
    if max_tubes < 1:
        raise StudyError(f"max_tubes must be at least 1, got {max_tubes!r}")
    params = calibrated_cnfet_parameters()
    reference = cmos_inverter(CMOS_NMOS_WIDTH_NM, CMOS_PMOS_WIDTH_NM)
    anchors = paper_anchors()

    points: List[FO4GainPoint] = []
    best_index = 0
    for tubes in range(1, max_tubes + 1):
        comparison = compare_fo4(
            cnfet_inverter(tubes, gate_width_nm, parameters=params), reference, vdd
        )
        points.append(
            FO4GainPoint(
                num_tubes=tubes,
                pitch_nm=gate_width_nm / tubes,
                delay_gain=comparison.delay_gain,
                energy_gain=comparison.energy_gain,
                edp_gain=comparison.edp_gain,
                cnfet_delay_ps=comparison.cnfet.delay_s * 1e12,
                cmos_delay_ps=comparison.cmos.delay_s * 1e12,
            )
        )
        if points[best_index].delay_gain < comparison.delay_gain:
            best_index = len(points) - 1

    area = inverter_area_gain()
    return Fig7Result(
        provenance=Provenance.capture(
            "fig7",
            params=dict(max_tubes=max_tubes, gate_width_nm=gate_width_nm, vdd=vdd),
        ),
        sweep=tuple(points),
        single_cnt=points[0],
        optimal=points[best_index],
        inverter_area_gain=area.gain,
        paper={
            "delay_gain_single_cnt": anchors.fo4_delay_gain_single_cnt,
            "energy_gain_single_cnt": anchors.fo4_energy_gain_single_cnt,
            "delay_gain_optimal": anchors.fo4_delay_gain_optimal,
            "energy_gain_optimal": anchors.fo4_energy_gain_optimal,
            "optimal_pitch_nm": anchors.optimal_pitch_nm,
            "inverter_area_gain": anchors.inverter_area_gain,
        },
    )


def run_fo4_transient_sweep(
    tube_counts: Sequence[int] = (1, 2, 4, 6, 8, 12),
    gate_width_nm: float = FO4_GATE_WIDTH_NM,
    vdd: float = 1.0,
) -> Fo4TransientResult:
    """Waveform-level Figure 7 cross-check on the batch transient engine.

    Every CNT-count corner's five-stage FO4 chain — plus the 65 nm CMOS
    reference — is integrated in **one** vectorized batch
    (:func:`~repro.circuit.fo4.fo4_transient_sweep`), and the analytical
    sweep of :func:`run_fig7_fo4` is cross-checked against measured
    50 %-to-50 % waveform delays.
    """
    if not tube_counts:
        raise StudyError("tube_counts must name at least one CNT count")
    params = calibrated_cnfet_parameters()
    inverters = [
        cnfet_inverter(tubes, gate_width_nm, parameters=params)
        for tubes in tube_counts
    ]
    inverters.append(cmos_inverter(CMOS_NMOS_WIDTH_NM, CMOS_PMOS_WIDTH_NM))
    metrics = fo4_transient_sweep(inverters, vdd=vdd)
    cmos = metrics[-1]
    points: List[FO4TransientPoint] = []
    for tubes, point in zip(tube_counts, metrics):
        points.append(
            FO4TransientPoint(
                num_tubes=tubes,
                pitch_nm=gate_width_nm / tubes,
                cnfet_delay_ps=point.delay_s * 1e12,
                cmos_delay_ps=cmos.delay_s * 1e12,
                delay_gain=cmos.delay_s / point.delay_s,
                energy_gain=cmos.energy_per_cycle_j / point.energy_per_cycle_j,
            )
        )
    best = max(points, key=lambda point: point.delay_gain)
    return Fo4TransientResult(
        provenance=Provenance.capture(
            "fo4_transient", engine="batch",
            params=dict(tube_counts=tuple(tube_counts),
                        gate_width_nm=gate_width_nm, vdd=vdd),
        ),
        sweep=tuple(points),
        cmos_delay_ps=cmos.delay_s * 1e12,
        optimal=best,
        batch_size=len(inverters),
    )


def run_characterization(
    gates: Sequence[str] = ("INV", "NAND2", "NAND3"),
    drive_strengths: Sequence[float] = (1.0, 2.0, 4.0),
    load_capacitances_f: Sequence[float] = (1.0e-15, 4.0e-15),
    input_slews_s: Sequence[float] = (5.0e-12,),
    corners: Optional[Dict[str, TechnologyConfig]] = None,
) -> CharacterizationResult:
    """Multi-corner standard-cell characterisation on the batch engine.

    The (cell × drive × load × slew × corner) grid behind the measured
    Liberty view: per cell, one vectorized transient batch measures every
    corner; the result reports the dense delay grid and basic physical
    sanity (delay monotone in load, faster at higher drive).
    """
    import numpy as np

    corners = corners or {
        "cnfet_tt": cnfet_technology(),
        "cmos_ref": cmos_technology(),
    }
    sweep = characterize_sweep(
        gate_names=gates,
        drive_strengths=drive_strengths,
        load_capacitances_f=load_capacitances_f,
        input_slews_s=input_slews_s,
        corners=corners,
    )
    grid = sweep.grid("worst_delay_s")
    # Sanity flags are None when an axis has a single point (nothing to
    # compare), so a vacuous np.all([]) can never masquerade as a check.
    return CharacterizationResult(
        provenance=Provenance.capture(
            "characterization", engine="batch",
            params=dict(gates=tuple(gates),
                        drive_strengths=tuple(drive_strengths),
                        load_capacitances_f=tuple(load_capacitances_f),
                        input_slews_s=tuple(input_slews_s),
                        corners=tuple(corners)),
        ),
        sweep=sweep,
        formatted=format_characterization(sweep),
        grid_shape=grid.shape,
        points=len(sweep.points),
        monotone_in_load=(
            bool(np.all(np.diff(grid, axis=2) > 0.0))
            if grid.shape[2] > 1 else None
        ),
        faster_at_higher_drive=(
            bool(np.all(np.diff(grid, axis=1) < 0.0))
            if grid.shape[1] > 1 else None
        ),
    )


def run_pitch_sensitivity(gate_width_nm: float = FO4_GATE_WIDTH_NM,
                          pitch_range_nm=(4.5, 5.5),
                          steps: int = 11) -> PitchSensitivityResult:
    """Delay variation across the paper's "optimal pitch range" (≤1 %)."""
    if steps < 2:
        raise StudyError(f"steps must be at least 2, got {steps!r}")
    params = calibrated_cnfet_parameters()
    reference = cmos_inverter(CMOS_NMOS_WIDTH_NM, CMOS_PMOS_WIDTH_NM)
    low, high = pitch_range_nm
    delays = []
    for index in range(steps):
        pitch = low + (high - low) * index / (steps - 1)
        tubes = max(1, int(round(gate_width_nm / pitch)))
        comparison = compare_fo4(
            cnfet_inverter(tubes, gate_width_nm, pitch_nm=pitch, parameters=params),
            reference,
        )
        delays.append(comparison.cnfet.delay_s)
    variation = (max(delays) - min(delays)) / min(delays)
    return PitchSensitivityResult(
        provenance=Provenance.capture(
            "pitch",
            params=dict(gate_width_nm=gate_width_nm,
                        pitch_range_nm=tuple(pitch_range_nm), steps=steps),
        ),
        pitch_low_nm=low,
        pitch_high_nm=high,
        delay_variation=variation,
        paper_variation=paper_anchors().optimal_pitch_delay_variation,
    )


# ---------------------------------------------------------------------------
# E6 — Figures 8/9 / Case study 2: the full adder
# ---------------------------------------------------------------------------

def run_fulladder_case_study(unit_width: float = 4.0) -> FullAdderResult:
    """Full-adder delay/energy/area for scheme 1, scheme 2 and CMOS."""
    anchors = paper_anchors()
    netlist = full_adder_netlist()

    kits = {
        1: CNFETDesignKit(scheme=1, unit_width=unit_width),
        2: CNFETDesignKit(scheme=2, unit_width=unit_width),
    }
    results = {scheme: kit.run_flow(netlist) for scheme, kit in kits.items()}

    def figures(scheme: int) -> GainReport:
        flow = results[scheme]
        cnfet = TechnologyFigures(
            name=f"cnfet_scheme{scheme}",
            delay_s=flow.report.timing.critical_path_delay,
            energy_per_cycle_j=flow.report.timing.total_energy_per_cycle,
            area_lambda2=flow.report.placement.core_area,
        )
        cmos = TechnologyFigures(
            name="cmos65",
            delay_s=flow.report.cmos_timing.critical_path_delay,
            energy_per_cycle_j=flow.report.cmos_timing.total_energy_per_cycle,
            area_lambda2=flow.report.cmos_placement.core_area,
        )
        return GainReport(cnfet=cnfet, cmos=cmos)

    gains = {scheme: figures(scheme) for scheme in results}
    return FullAdderResult(
        provenance=Provenance.capture(
            "fig8", params={"unit_width": unit_width},
        ),
        flow_summaries={scheme: flow.summarize()
                        for scheme, flow in results.items()},
        gains=gains,
        delay_gain=gains[1].delay_gain,
        energy_gain=gains[1].energy_gain,
        area_gain_scheme1=gains[1].area_gain,
        area_gain_scheme2=gains[2].area_gain,
        paper={
            "delay_gain": anchors.fulladder_delay_gain,
            "energy_gain": anchors.fulladder_energy_gain,
            "area_gain_scheme1": anchors.fulladder_area_gain_scheme1,
            "area_gain_scheme2": anchors.fulladder_area_gain_scheme2,
        },
        flow_results=results,
    )


# ---------------------------------------------------------------------------
# E6b — circuit-level yield / delay / energy (beyond the paper)
# ---------------------------------------------------------------------------

# The engine lives in its own subsystem (`repro.circuit_study`); re-exported
# here so the registry's one-runner-per-study convention holds and `repro
# list` shows its parameters like any other study.
from ..circuit_study import run_circuit_study  # noqa: E402


# ---------------------------------------------------------------------------
# E7 — headline EDP / EDAP summary (abstract + conclusions)
# ---------------------------------------------------------------------------

def run_edp_summary() -> EdpSummaryResult:
    """Inverter-level EDP/EDAP gains at the optimal pitch."""
    fig7 = run_fig7_fo4()
    best = fig7.optimal
    single = fig7.single_cnt
    area_gain = fig7.inverter_area_gain
    anchors = paper_anchors()
    edp_gain_optimal = best.delay_gain * best.energy_gain
    edp_gain_single = single.delay_gain * single.energy_gain
    return EdpSummaryResult(
        provenance=Provenance.capture("edp", params={}),
        delay_gain_optimal=best.delay_gain,
        energy_gain_optimal=best.energy_gain,
        area_gain=area_gain,
        edp_gain_optimal=edp_gain_optimal,
        edp_gain_single_cnt=edp_gain_single,
        edp_gain_best=max(edp_gain_optimal, edp_gain_single),
        edap_gain_optimal=edp_gain_optimal * area_gain,
        paper_edp_gain=anchors.edp_gain_headline,
        paper_edap_gain=anchors.edap_gain_headline,
        paper_area_saving=0.30,
    )
