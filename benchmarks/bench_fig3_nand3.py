"""E2 — Figure 3: the NAND3 compaction walk-through (16.67 % at 4 λ).

The NAND3 waveform parity of the batch transient engine against its scalar
reference is a tier-1 test (``tests/test_simulator_batch.py``)."""

from conftest import record

from repro.analysis import run_fig3_nand3


def test_fig3_nand3_compaction(benchmark):
    result = benchmark(run_fig3_nand3)
    record(
        benchmark,
        measured_saving=round(result.measured_saving, 4),
        paper_saving=result.paper_saving,
        baseline_area_lambda2=result.baseline_area,
        compact_area_lambda2=result.compact_area,
    )
    assert abs(result.measured_saving - result.paper_saving) < 0.01

