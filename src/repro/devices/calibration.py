"""Calibrated device parameters and the paper's anchor values.

The paper does not publish its HSPICE decks, so the free constants of the
CNFET compact model (per-tube capacitance, fixed parasitics, screening
strength) are calibrated against the anchor points it *does* report for the
FO4 inverter experiment (Case study 1 / Figure 7):

* 1 CNT per device: 2.75× faster, 6.3× lower switching energy per cycle
  than the 65 nm CMOS inverter at 1 V;
* at the optimal pitch of 5 nm: 4.2× faster, 2× lower energy per cycle;
* the optimal-pitch plateau spans roughly 4.5-5.5 nm (≤1 % delay change).

``fit_report()`` re-evaluates the calibrated model against these anchors so
tests and benchmarks can verify the calibration instead of trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .cnfet import CNFETParameters
from .mosfet import MOSFETParameters, NMOS_65, PMOS_65

#: Fixed CNFET gate width used for the Figure 7 sweep (the paper keeps the
#: gate width constant while increasing the number of tubes; the value below
#: is chosen together with the screening calibration so the optimum lands at
#: a 5 nm pitch).
FO4_GATE_WIDTH_NM = 32.5

#: The CMOS pMOS is 1.4× wider than its nMOS, for hole mobility (Section V).
CMOS_PMOS_RATIO = 1.4
#: Reference CMOS inverter sizes at 65 nm (minimum-size nMOS; the product
#: is exactly 280.0).
CMOS_NMOS_WIDTH_NM = 200.0
CMOS_PMOS_WIDTH_NM = CMOS_PMOS_RATIO * CMOS_NMOS_WIDTH_NM


@dataclass(frozen=True)
class PaperAnchors:
    """Numbers reported by the paper, used by benchmarks for comparison."""

    fo4_delay_gain_single_cnt: float = 2.75
    fo4_energy_gain_single_cnt: float = 6.3
    fo4_delay_gain_optimal: float = 4.2
    fo4_energy_gain_optimal: float = 2.0
    optimal_pitch_nm: float = 5.0
    optimal_pitch_range_nm: tuple = (4.5, 5.5)
    optimal_pitch_delay_variation: float = 0.01
    inverter_area_gain: float = 1.4
    fulladder_delay_gain: float = 3.5
    fulladder_energy_gain: float = 1.5
    fulladder_area_gain_scheme1: float = 1.4
    fulladder_area_gain_scheme2: float = 1.6
    edp_gain_headline: float = 10.0
    edap_gain_headline: float = 12.0
    nand3_area_saving_4lambda: float = 0.1667


def paper_anchors() -> PaperAnchors:
    """The paper's reported values (see :class:`PaperAnchors`)."""
    return PaperAnchors()


def calibrated_cnfet_parameters() -> CNFETParameters:
    """The CNFET parameter set calibrated against the Figure 7 anchors.

    Provenance of each value:

    * ``on_current_per_tube`` — pinned by the 2.75×/6.3× single-tube
      anchors given the CMOS reference; lands at ~28 µA, consistent with
      the near-ballistic on-current of a single tube at 1 V (~25-30 µA).
    * ``gate_cap_per_tube`` / ``fixed_*`` — pinned by the 6.3× (single
      tube) and 2× (optimal pitch) energy anchors.
    * ``screening_pitch_nm`` / ``screening_exponent`` /
      ``current_screening_power`` — pinned by the 4.2× optimal gain and by
      the optimum falling at a 5 nm pitch.
    """
    return CNFETParameters(
        threshold_voltage=0.29,
        on_current_per_tube=27.94e-6,
        gate_cap_per_tube=21.53e-18,
        drain_cap_per_tube=3.13e-18,
        fixed_gate_cap_per_um=0.408e-15,
        fixed_drain_cap_per_um=0.544e-15,
        screening_pitch_nm=5.15,
        screening_exponent=2.0,
        current_screening_power=1.0,
        alpha=1.2,
        series_resistance_per_tube=12.0e3,
        nominal_vdd=1.0,
    )


def calibrated_nmos_parameters() -> MOSFETParameters:
    """Reference 65 nm nMOS parameters."""
    return NMOS_65


def calibrated_pmos_parameters() -> MOSFETParameters:
    """Reference 65 nm pMOS parameters."""
    return PMOS_65


def fit_report() -> Dict[str, float]:
    """Evaluate the calibrated model against the paper anchors.

    Returns measured values for the single-tube and optimal-pitch gains
    (searched over 1-40 tubes) and the located optimal pitch, so callers
    can report paper-vs-measured.
    """
    from ..circuit.fo4 import compare_fo4
    from ..circuit.inverter import cmos_inverter, cnfet_inverter

    params = calibrated_cnfet_parameters()
    reference = cmos_inverter(CMOS_NMOS_WIDTH_NM, CMOS_PMOS_WIDTH_NM)

    single = compare_fo4(
        cnfet_inverter(1, FO4_GATE_WIDTH_NM, parameters=params), reference
    )

    best = None
    best_tubes = 1
    for tubes in range(1, 41):
        comparison = compare_fo4(
            cnfet_inverter(tubes, FO4_GATE_WIDTH_NM, parameters=params), reference
        )
        if best is None or comparison.delay_gain > best.delay_gain:
            best = comparison
            best_tubes = tubes

    pitch_at_best = FO4_GATE_WIDTH_NM / best_tubes
    return {
        "delay_gain_single_cnt": single.delay_gain,
        "energy_gain_single_cnt": single.energy_gain,
        "delay_gain_optimal": best.delay_gain,
        "energy_gain_optimal": best.energy_gain,
        "optimal_pitch_nm": pitch_at_best,
        "optimal_num_tubes": float(best_tubes),
        "edp_gain_optimal": best.edp_gain,
        "cmos_fo4_delay_ps": reference and single.cmos.delay_s * 1e12,
    }
