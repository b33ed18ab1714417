"""Figure 2 scenario: why conventional CNFET layouts fail and the paper's
layouts do not.

Builds the same NAND2 cell with three layout techniques — the vulnerable
conventional layout, the etched-region baseline of Patil et al. [6], and the
paper's compact Euler-path layout — then bombards each with mispositioned
CNTs and reports how often the logic function is corrupted.  All Monte Carlo
runs use the batched engine, so thousands of trials stay interactive, and
every technique sees the same defect populations (shared seed).

Run with ``python examples/imperfection_immunity.py``.
"""

from __future__ import annotations

import numpy as np

from repro import SweepSpec, assemble_cell, run_sweep_study, standard_gate
from repro.immunity import (
    ImmunityChecker,
    compare_techniques,
    format_comparison,
    nominal_cnts,
    random_mispositioned_cnts,
)


def inspect_single_failure() -> None:
    """Show one concrete failing defect on the vulnerable layout."""
    gate = standard_gate("NAND2")
    cell = assemble_cell(gate, technique="vulnerable", scheme=1)
    annotations = cell.annotations()
    checker = ImmunityChecker(annotations)
    nominal = nominal_cnts(annotations)

    rng = np.random.default_rng(2009)
    print("Hunting for a corrupting mispositioned CNT on the vulnerable layout...")
    for trial in range(1, 201):
        strays = random_mispositioned_cnts(annotations, 3, rng)
        report = checker.check(nominal, strays, expected=gate.expected_truth_table())
        if not report.immune:
            print(f"  trial {trial}: function corrupted on "
                  f"{report.failure_count} input combination(s)")
            for assignment in report.failing_assignments[:2]:
                bits = ", ".join(f"{k}={int(v)}" for k, v in sorted(assignment.items()))
                observed = report.observed.row(assignment)
                expected = report.expected.row(assignment)
                observed_text = "X (conflict/floating)" if observed is None else int(observed)
                print(f"    inputs {bits}: expected {int(expected)}, got {observed_text}")
            break
    else:
        print("  no failure found in 200 trials (try more CNTs per trial)")
    print()


def monte_carlo_comparison() -> None:
    """The headline Figure 2 comparison across all three techniques.

    Each technique is attacked by the identical defect populations — the
    shared-seed contract of ``compare_techniques`` — and the batched engine
    makes 2000 trials per technique essentially free.
    """
    for gate_name in ("NAND2", "NAND3"):
        results = compare_techniques(gate_name, trials=2000, cnts_per_trial=4, seed=7)
        print(f"{gate_name} under mispositioned-CNT injection "
              f"(2000 trials, 4 CNTs each, shared defect populations):")
        print(format_comparison(results))
        print()


def defect_parameter_sweep() -> None:
    """Where does immunity break?  Sweep density, alignment and metallic
    residue in one batched run, through the unified Study sweep API (the
    same SweepSpec also drives the transient engine, and the result
    serializes: ``result.to_json("immunity_sweep.json")``)."""
    print("Sweeping defect density / alignment / metallic residue (NAND2):")
    spec = SweepSpec.from_mapping({
        "technique": ("vulnerable", "compact"),
        "cnts_per_trial": (2, 4, 8),
        "max_angle_deg": (5.0, 30.0),
        "metallic_fraction": (0.0, 0.25),
    })
    result = run_sweep_study(spec, engine="immunity", trials=1000, seed=2009)
    print(result)

    def select(predicate):
        return [r for r in result.records if predicate(r.corner.as_dict())]

    clean = select(lambda c: c["metallic_fraction"] == 0.0
                   and c["technique"] == "compact")
    dirty = select(lambda c: c["metallic_fraction"] > 0.0
                   and c["technique"] == "compact")
    print()
    print(f"  compact immune on all {len(clean)} metallic-free points: "
          f"{all(r.metrics['immune'] for r in clean)}")
    print(f"  with 25% metallic tubes even compact layouts fail "
          f"(worst {max(r.metrics['failure_rate'] for r in dirty) * 100:.0f}%) "
          f"- the paper's metallic-removal assumption is load-bearing.")
    print()


def main() -> None:
    inspect_single_failure()
    monte_carlo_comparison()
    defect_parameter_sweep()
    print("Conclusion: the Euler-path compact layouts (and the etched baseline)")
    print("keep 100% functionality, the conventional layout does not — the")
    print("compact layouts achieve this without any etched region or vertical")
    print("gating, which is the paper's core contribution.")


if __name__ == "__main__":
    main()
