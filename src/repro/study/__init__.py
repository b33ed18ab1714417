"""The Study layer: one typed, serializable API over every experiment.

The paper's evaluation is reproduced by the ``run_*`` functions of
:mod:`repro.analysis.experiments`; this package gives all of them a common
shape:

* :class:`~repro.study.spec.SweepSpec` / :class:`~repro.study.spec.Corner`
  — one sweep abstraction (named axes, grid or zip expansion, the PR-1
  ``SeedLike`` seed-spawning contract) consumed by both the Monte Carlo
  immunity engine and the batch transient/characterisation engine;
* :class:`~repro.study.results.StudyResult` and its per-figure subclasses
  — frozen dataclasses whose ``to_dict()`` / ``from_dict()`` / JSON
  round-trips are derived from their fields, with provenance metadata
  (engine, seed, parameters, config hash) and ``__str__`` renderings;
* :func:`~repro.study.registry.run_study` / ``list_studies`` — a registry
  mapping figure/table names to their runners;
* :func:`~repro.study.sweeps.run_sweep_study` — the unified sweep driver;
* :mod:`repro.study.cli` — the ``python -m repro`` command line
  (``repro list``, ``repro run fig7 --json out.json``, ``repro sweep
  --axis vdd=0.8:1.0:5 ...``).
"""

from .results import (
    CharacterizationResult,
    CircuitCellReport,
    CircuitStudyResult,
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
    RESULT_SCHEMA,
    StudyResult,
    Table1Result,
)
from .registry import StudyDefinition, get_study, list_studies, run_study
from .serialize import canonical_json, config_hash, decode, encode
from .spec import Axis, Corner, SweepSpec, parse_axis
from .sweeps import SweepRecord, SweepStudyResult, run_sweep_study

__all__ = [
    "Axis",
    "CharacterizationResult",
    "CircuitCellReport",
    "CircuitStudyResult",
    "Corner",
    "EdpSummaryResult",
    "Fig2ImmunityResult",
    "Fig3Result",
    "Fig4Result",
    "Fig7Result",
    "FO4GainPoint",
    "FO4TransientPoint",
    "Fo4TransientResult",
    "FullAdderResult",
    "ImmunitySweepResult",
    "PitchSensitivityResult",
    "Provenance",
    "RESULT_SCHEMA",
    "StudyDefinition",
    "StudyResult",
    "SweepRecord",
    "SweepSpec",
    "SweepStudyResult",
    "Table1Result",
    "canonical_json",
    "config_hash",
    "decode",
    "encode",
    "get_study",
    "list_studies",
    "parse_axis",
    "run_study",
    "run_sweep_study",
]
