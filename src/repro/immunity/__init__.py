"""Mispositioned-CNT immunity analysis (Figure 2 experiments).

Quick usage
-----------
Single-cell Monte Carlo (batched engine, default)::

    from repro import assemble_cell, standard_gate
    from repro.immunity import run_immunity_trials

    cell = assemble_cell(standard_gate("NAND2"), technique="compact")
    result = run_immunity_trials(cell, trials=2000, cnts_per_trial=4, seed=2009)
    print(result.failure_rate, result.immune)

Figure 2 technique comparison — every technique is attacked by the **same**
defect populations (one shared seed)::

    from repro.immunity import compare_techniques, format_comparison

    print(format_comparison(compare_techniques("NAND2", trials=2000)))

Parameter sweeps over defect density / alignment / metallic residue run
on the study layer's immunity sweep engine, optionally over a process
pool::

    from repro.analysis import run_immunity_sweep

    result = run_immunity_sweep(gates=("NAND2", "NAND3"),
                                cnts_per_trial=(2, 4, 8),
                                max_angle_deg=(5.0, 15.0, 30.0),
                                trials=1000, jobs=4)
    print(result)

Seed contract: a fixed seed fully determines every defect population;
:func:`run_immunity_trials` and its scalar reference
:func:`~repro.immunity.montecarlo.reference_immunity_trials` (and any
chunk size) produce identical
:class:`MonteCarloResult` values, and within :func:`compare_techniques`
and an immunity sweep all techniques at the same parameter point consume
identical underlying defect draws.
"""

from .checker import (
    CODE_HIGH,
    CODE_LOW,
    CODE_UNDRIVEN,
    ImmunityChecker,
    ImmunityReport,
    TubeAnalysis,
)
from .cnts import (
    CNTBatch,
    CNTInstance,
    nominal_cnts,
    random_mispositioned_cnts,
    sample_mispositioned_batch,
)
from .montecarlo import (
    DEFAULT_CHUNK_SIZE,
    MonteCarloResult,
    SweepPoint,
    compare_techniques,
    format_comparison,
    format_sweep,
    run_immunity_trials,
)

__all__ = [
    "CODE_HIGH",
    "CODE_LOW",
    "CODE_UNDRIVEN",
    "ImmunityChecker",
    "ImmunityReport",
    "TubeAnalysis",
    "CNTBatch",
    "CNTInstance",
    "nominal_cnts",
    "random_mispositioned_cnts",
    "sample_mispositioned_batch",
    "DEFAULT_CHUNK_SIZE",
    "MonteCarloResult",
    "SweepPoint",
    "compare_techniques",
    "format_comparison",
    "format_sweep",
    "run_immunity_trials",
]
