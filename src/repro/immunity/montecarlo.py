"""Monte Carlo mispositioned-CNT immunity experiments (Figure 2).

The paper's qualitative claim — the vulnerable layout of Figure 2(b) fails
under mispositioned CNTs while the immune layouts (etched-region baseline
and the new compact technique) keep 100 % functionality — is quantified
here: for each layout technique a population of random mispositioned CNTs
is injected repeatedly and the fraction of trials whose truth table is
corrupted is reported.

Engines
-------
:func:`run_immunity_trials` is the one public engine.  It samples whole
defect populations at once and evaluates every trial × input-assignment
with NumPy array operations via
:meth:`~repro.immunity.checker.ImmunityChecker.evaluate_batch`, in memory
chunks of ``DEFAULT_CHUNK_SIZE`` trials.  What does not depend on the
trials — the cell's checker and its packed geometry, the nominal tubes'
adjacency, the intended drive codes — is a :class:`PreparedCell`, built
by :func:`prepare_cell`.  The engine takes a cell, which it prepares on
every call, or a prepared cell, which the caller holds: the immunity
sweep engine prepares each ``(gate, technique)`` once and hands it to
every corner of that cell.  Each call is one ``immunity.trials`` trace
span (``trials``, ``assignments``, ``tubes``).

The scalar loop it was written from — one trial at a time through the
checker's per-tube walk — lives with the tests (``tests/reference.py``)
as the executable specification.  Both consume the random stream in the
same per-tube order, so a fixed seed produces identical
:class:`MonteCarloResult` values on either (and for any chunk size); the
oracle tests and ``benchmarks/bench_immunity_scale.py`` compare the two.

Seed contract
-------------
:func:`compare_techniques` attacks **every technique with the same defect
model**: each technique's generator is built from the same seed (one common
``SeedSequence``), so trial ``t`` consumes the identical underlying uniform
draws for every technique.  The raw draws are scaled to each cell's own
bounding box, which is what "the same Monte Carlo CNT defect model" means
for cells of different sizes.  The immunity sweep engine
(:mod:`repro.study.sweeps`) extends the contract: grid corners that differ
only in ``technique`` share one child sequence spawned from
:func:`sweep_seed_root`, while distinct parameter combinations get
independent child sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

from ..core.spec import CellAnnotations
from ..core.standard_cell import StandardCell, assemble_cell
from ..errors import ImmunityAnalysisError
from ..geometry.primitives import Rect
from ..logic.functions import standard_gate
from .checker import ImmunityChecker
from .cnts import (
    CNTBatch,
    _cell_extent,
    nominal_cnts,
    sample_mispositioned_batch,
)

#: Spacing of the nominal (aligned) CNT population every trial's strays
#: are added to [lambda].
NOMINAL_CNT_PITCH = 1.0

#: Trials evaluated per vectorized chunk; bounds peak memory while keeping
#: the arrays large enough to amortise dispatch overhead.
DEFAULT_CHUNK_SIZE = 512

#: Seed-like values accepted wherever a Monte Carlo seed is expected.
SeedLike = Union[int, Sequence[int], np.random.SeedSequence]

#: Reserved spawn-key element under which every sweep derives its child
#: sequences (:func:`sweep_seed_root`), far outside the counter range
#: ``SeedSequence.spawn`` uses, so sweep children never collide with
#: children the caller spawns themselves.
_SWEEP_SPAWN_KEY = 1 << 31


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate outcome of one immunity Monte Carlo run."""

    cell_name: str
    technique: str
    trials: int
    cnts_per_trial: int
    failures: int
    nominal_matches: bool

    @property
    def failure_rate(self) -> float:
        """Fraction of trials whose logic function was corrupted."""
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    @property
    def immune(self) -> bool:
        """100 % functional immunity across all trials."""
        return self.failures == 0 and self.nominal_matches


@dataclass(frozen=True)
class PreparedCell:
    """The trial-independent state of one cell, built by
    :func:`prepare_cell`: its technique and annotations, the checker, the
    region defects are drawn in, the nominal tubes' adjacency, and the
    intended drive codes."""

    technique: str
    annotations: CellAnnotations
    checker: ImmunityChecker
    region: Rect
    base_adjacency: np.ndarray
    expected_codes: np.ndarray
    nominal_matches: bool


def prepare_cell(cell: StandardCell) -> PreparedCell:
    """What :func:`run_immunity_trials` computes of ``cell`` before its
    first trial, as the cell is now.  The value does not follow later
    changes to the cell: prepare it again after editing the cell."""
    annotations = cell.annotations()
    checker = ImmunityChecker(annotations)
    nominal = nominal_cnts(annotations, pitch=NOMINAL_CNT_PITCH)
    expected = cell.gate.expected_truth_table()
    base_adjacency, nominal_codes = checker.base_state(
        CNTBatch.from_instances(nominal)
    )
    expected_codes = checker.truth_table_codes(expected)
    nominal_matches = set(expected.inputs) == set(checker.inputs) and bool(
        (nominal_codes == expected_codes).all()
    )
    return PreparedCell(cell.technique, annotations, checker,
                        _cell_extent(annotations),
                        base_adjacency, expected_codes, nominal_matches)


def run_immunity_trials(
    cell: Union[StandardCell, PreparedCell],
    trials: int = 200,
    cnts_per_trial: int = 4,
    max_angle_deg: float = 15.0,
    seed: SeedLike = 2009,
    metallic_fraction: float = 0.0,
) -> MonteCarloResult:
    """Monte Carlo immunity analysis of one assembled standard cell.

    Assembled cells have their CNT strips running horizontally, so the
    growth axis is ``x``.  ``metallic_fraction`` marks a fraction of the
    injected defect tubes as metallic — the paper assumes this is zero after
    processing (Section II); raising it shows how quickly that assumption
    matters, because no layout technique can gate a metallic tube off.

    All trials go through the vectorized evaluator in chunks of
    ``DEFAULT_CHUNK_SIZE``; the scalar reference in ``tests/reference.py``
    gives the identical result one trial at a time.  ``cell`` is a
    :class:`~repro.core.standard_cell.StandardCell`, prepared
    (:func:`prepare_cell`) on every call, or a :class:`PreparedCell`,
    which a caller running many corners on one cell prepares once.
    """
    # Imported here: the obs package reaches the runtime layer, which
    # sits above this engine.
    from ..obs import trace as obs_trace

    if trials <= 0:
        raise ImmunityAnalysisError("trials must be positive")
    with obs_trace.span("immunity.trials", trials=trials,
                        tubes=trials * cnts_per_trial):
        prepared = (cell if isinstance(cell, PreparedCell)
                    else prepare_cell(cell))
        checker = prepared.checker
        obs_trace.annotate(assignments=checker.geometry.num_assignments)
        rng = np.random.default_rng(seed)
        failures = 0
        remaining = trials
        while remaining:
            chunk = min(DEFAULT_CHUNK_SIZE, remaining)
            batch = sample_mispositioned_batch(
                prepared.annotations, chunk * cnts_per_trial, rng,
                max_angle_deg=max_angle_deg, region=prepared.region,
                metallic_fraction=metallic_fraction,
            )
            codes = checker.evaluate_batch(
                batch, groups=chunk, base_adjacency=prepared.base_adjacency)
            failures += int(
                (codes != prepared.expected_codes[None, :]).any(axis=1).sum())
            remaining -= chunk
    return MonteCarloResult(prepared.annotations.cell_name,
                            prepared.technique, trials, cnts_per_trial,
                            failures, prepared.nominal_matches)


def compare_techniques(
    gate_name: str = "NAND2",
    trials: int = 200,
    cnts_per_trial: int = 4,
    seed: SeedLike = 2009,
) -> Dict[str, MonteCarloResult]:
    """Run the Figure 2 experiment: the same gate laid out with each
    technique (vulnerable, baseline, compact; 4 λ unit width, scheme 1),
    attacked by the same Monte Carlo CNT defect model.

    Every technique's generator is spawned from the common
    ``SeedSequence(seed)``, so all techniques consume the identical
    underlying defect draws — trial ``t`` uses the same raw ``(x, y, angle,
    metallic)`` uniforms for every technique, making the Figure 2 comparison
    apples-to-apples.  (The draws are scaled to each cell's own bounding
    box; independence *within* a technique comes from consuming the stream
    across trials.)
    """
    results: Dict[str, MonteCarloResult] = {}
    seed_sequence = _as_seed_sequence(seed)
    for technique in ("vulnerable", "baseline", "compact"):
        cell = assemble_cell(standard_gate(gate_name), technique=technique)
        results[technique] = run_immunity_trials(
            cell,
            trials=trials,
            cnts_per_trial=cnts_per_trial,
            seed=seed_sequence,
        )
    return results


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """A reusable SeedSequence: passing it to ``default_rng`` repeatedly
    yields identically seeded generators (the shared-population contract)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def sweep_seed_root(seed: SeedLike) -> np.random.SeedSequence:
    """The root every sweep spawns its per-corner children from.

    A fresh copy of ``SeedSequence(seed)`` under the reserved
    ``_SWEEP_SPAWN_KEY``: ``SeedSequence.spawn`` advances the parent's
    counter (spawning from the caller's sequence would make identical
    sweeps irreproducible), while a plain copy restarts the counter at 0
    and would alias children the caller already spawned themselves.
    """
    root = _as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=root.spawn_key + (_SWEEP_SPAWN_KEY,),
        pool_size=root.pool_size,
    )


#: Reserved spawn-key element for per-cell seed derivation in circuit
#: studies (see :func:`circuit_cell_seed`); distinct from the sweep key so
#: circuit children can never collide with sweep children of the same root.
_CIRCUIT_SPAWN_KEY = (1 << 31) + 1


def circuit_cell_seed(seed: SeedLike, cell_name: str) -> np.random.SeedSequence:
    """A stable child SeedSequence for one named cell of a circuit study.

    The child depends only on the root seed and ``cell_name`` — not on how
    many other cells the circuit contains or the order they are evaluated —
    so the same cell in a different circuit (or a re-run with a grown
    netlist) draws the identical defect population.  That is what lets the
    corner store reuse per-cell immunity entries across circuits.
    """
    import hashlib

    root = _as_seed_sequence(seed)
    token = int.from_bytes(
        hashlib.sha256(cell_name.encode("utf-8")).digest()[:4], "big"
    )
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (_CIRCUIT_SPAWN_KEY, token),
        pool_size=root.pool_size,
    )


def circuit_survival_draws(
    failure_probabilities: Sequence[float],
    draws: int,
    seed: SeedLike,
) -> np.ndarray:
    """Defective-instance counts for ``draws`` independent circuit samples.

    Each draw flips one Bernoulli coin per instance with that instance's
    cell failure probability; the returned int array holds the number of
    defective instances per draw (0 ⇒ the circuit is functional under the
    every-cell-must-work yield model).  Vectorized: one uniform matrix of
    shape ``(draws, instances)``.
    """
    probs = np.asarray(list(failure_probabilities), dtype=float)
    if draws < 0:
        raise ImmunityAnalysisError("draws must be non-negative")
    if probs.size == 0 or draws == 0:
        return np.zeros(draws, dtype=np.int64)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ImmunityAnalysisError(
            "failure probabilities must lie in [0, 1]"
        )
    rng = np.random.default_rng(_as_seed_sequence(seed))
    uniforms = rng.random((int(draws), probs.size))
    return np.count_nonzero(uniforms < probs[np.newaxis, :], axis=1).astype(np.int64)


def format_comparison(results: Dict[str, MonteCarloResult]) -> str:
    """Render a technique-vs-failure-rate table."""
    header = f"{'technique':<12} {'trials':>7} {'failures':>9} {'failure rate':>13} {'immune':>7}"
    lines = [header, "-" * len(header)]
    for technique, result in results.items():
        lines.append(
            f"{technique:<12} {result.trials:>7} {result.failures:>9} "
            f"{result.failure_rate * 100:>12.1f}% {str(result.immune):>7}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Immunity sweep points (the payload of the ``immunity_sweep`` study)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One cell of a parameter sweep and its Monte Carlo outcome."""

    gate: str
    technique: str
    cnts_per_trial: int
    max_angle_deg: float
    metallic_fraction: float
    result: MonteCarloResult

    @property
    def failure_rate(self) -> float:
        return self.result.failure_rate


def format_sweep(points: Sequence[SweepPoint]) -> str:
    """Render a sweep as a text table."""
    header = (
        f"{'gate':<8} {'technique':<12} {'cnts':>5} {'angle':>6} "
        f"{'metallic':>9} {'trials':>7} {'failure rate':>13} {'immune':>7}"
    )
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.gate:<8} {point.technique:<12} "
            f"{point.cnts_per_trial:>5} {point.max_angle_deg:>6.1f} "
            f"{point.metallic_fraction:>9.2f} {point.result.trials:>7} "
            f"{point.failure_rate * 100:>12.1f}% {str(point.result.immune):>7}"
        )
    return "\n".join(lines)
