"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Euler-path linearisation vs the etched-region baseline vs the vulnerable
  grid — both area and immunity, per cell type.
* Scheme 1 vs scheme 2 standardisation — area utilisation on the full adder.
* Library CNT pitch — how the cell-level delay gain degrades away from the
  optimal ~5 nm pitch.
"""

import pytest
from conftest import record

from repro.analysis import run_immunity_sweep
from repro.cells import characterize_gate, cmos_technology, cnfet_technology
from repro.core import assemble_cell
from repro.flow import CNFETDesignKit, full_adder_netlist
from repro.logic import standard_gate


@pytest.mark.parametrize("technique", ["vulnerable", "baseline", "compact"])
def test_ablation_layout_technique_area(benchmark, technique):
    """Cell area of NAND3 under each layout technique (scheme 1)."""
    cell = benchmark(
        assemble_cell, standard_gate("NAND3"), technique, 1, 4.0
    )
    record(benchmark, technique=technique, area_lambda2=cell.area,
           height_lambda=cell.height, width_lambda=cell.width)
    assert cell.area > 0


@pytest.mark.parametrize("gate_name", ["NAND2", "NAND3"])
def test_ablation_layout_technique_immunity(benchmark, gate_name):
    """Failure rate vs defect density per layout technique (batched sweep).

    The immunity half of the layout-technique ablation: the vulnerable grid
    degrades as CNTs per trial grow, while the etched baseline and the
    compact Euler-path layouts stay at 0 % for every density.
    """
    result = benchmark.pedantic(
        run_immunity_sweep,
        kwargs=dict(
            gates=(gate_name,),
            techniques=("vulnerable", "baseline", "compact"),
            cnts_per_trial=(2, 4, 8),
            trials=400,
            seed=2009,
        ),
        iterations=1,
        rounds=1,
    )
    by_technique = {}
    for point in result.points:
        by_technique.setdefault(point.technique, {})[point.cnts_per_trial] = \
            round(point.failure_rate, 3)
    record(benchmark, gate=gate_name, failure_rate_by_density=by_technique)
    vulnerable = by_technique["vulnerable"]
    assert vulnerable[8] >= vulnerable[2]
    assert all(rate == 0.0 for rate in by_technique["compact"].values())
    assert all(rate == 0.0 for rate in by_technique["baseline"].values())


@pytest.mark.parametrize("scheme", [1, 2])
def test_ablation_scheme_area_utilisation(benchmark, scheme):
    """Full-adder core area under scheme 1 vs scheme 2 standardisation."""
    kit = CNFETDesignKit(gate_set=("INV", "NAND2"), drive_strengths=(1.0, 2.0, 4.0, 9.0),
                         scheme=scheme)
    result = benchmark.pedantic(kit.run_flow, args=(full_adder_netlist(),),
                                iterations=1, rounds=1)
    record(
        benchmark,
        scheme=scheme,
        core_area_lambda2=round(result.report.placement.core_area, 1),
        utilization=round(result.report.placement.utilization, 3),
        area_gain_vs_cmos=round(result.report.area_gain_vs_cmos, 3),
    )


@pytest.mark.parametrize("pitch_nm", [3.0, 5.0, 10.0, 20.0])
def test_ablation_library_pitch(benchmark, pitch_nm):
    """Cell-level speed advantage as a function of the library CNT pitch."""

    def run():
        gate = standard_gate("NAND2")
        cnfet = characterize_gate(gate, cnfet_technology(pitch_nm=pitch_nm))
        cmos = characterize_gate(gate, cmos_technology())
        return cmos.drive_resistance / cnfet.drive_resistance

    resistance_gain = benchmark(run)
    record(benchmark, pitch_nm=pitch_nm, drive_advantage=round(resistance_gain, 3))
    # Dense libraries (near the optimal pitch) out-drive CMOS; sparse ones
    # (few tubes per device) lose the advantage, which is the point of the
    # ablation.
    assert resistance_gain > 0.0
    if pitch_nm <= 5.0:
        assert resistance_gain > 1.0
