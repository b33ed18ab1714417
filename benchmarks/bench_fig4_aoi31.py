"""E4 — Figure 4: the generalised AOI31 misaligned-CNT-immune layout.

The AOI31 waveform parity of the batch transient engine against its scalar
reference is a tier-1 test (``tests/test_simulator_batch.py``)."""

from conftest import record

from repro.analysis import run_fig4_aoi31


def test_fig4_aoi31_layout(benchmark):
    result = benchmark(run_fig4_aoi31)
    record(
        benchmark,
        pun_contacts=result.pun_contacts,
        pdn_contacts=result.pdn_contacts,
        scheme1_area_lambda2=result.scheme1_area,
        scheme2_area_lambda2=result.scheme2_area,
        etched_regions=result.requires_etched_regions,
        pdn_width_factors=str(list(result.pdn_width_factors)),
        pun_width_factors=str(list(result.pun_width_factors)),
    )
    # The compact construction needs no etched regions at all, and the
    # symmetric sizing widens the single-transistor PDN branch as in the
    # paper's Figure 4(b).
    assert result.requires_etched_regions == 0
    assert max(result.pdn_width_factors) > min(result.pdn_width_factors)

