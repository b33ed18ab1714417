"""Comparison metrics and per-figure experiment runners.

Every ``run_*`` runner returns a typed, Mapping-compatible
:class:`~repro.study.results.StudyResult` (``to_dict()`` gives the plain
dict payload).
"""

from .experiments import (
    run_characterization,
    run_edp_summary,
    run_fig2_immunity,
    run_fig3_nand3,
    run_fig4_aoi31,
    run_fig7_fo4,
    run_fo4_transient_sweep,
    run_fulladder_case_study,
    run_immunity_sweep,
    run_pitch_sensitivity,
    run_table1,
)
from .metrics import GainReport, TechnologyFigures, edap, edp, gain

__all__ = [
    "run_characterization",
    "run_edp_summary",
    "run_fig2_immunity",
    "run_immunity_sweep",
    "run_fig3_nand3",
    "run_fig4_aoi31",
    "run_fig7_fo4",
    "run_fo4_transient_sweep",
    "run_fulladder_case_study",
    "run_pitch_sensitivity",
    "run_table1",
    "GainReport",
    "TechnologyFigures",
    "edap",
    "edp",
    "gain",
]
