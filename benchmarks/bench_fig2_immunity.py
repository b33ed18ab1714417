"""E3 — Figure 2: functional immunity to mispositioned CNTs.

The paper's claim: the conventional layout of Figure 2(b) is vulnerable to
mispositioned CNTs, while the etched-region baseline [6] and the new compact
layouts keep 100 % functionality.  The benchmark runs the Monte Carlo defect
model over all three techniques for NAND2 and NAND3 on the batched engine;
every technique is attacked by the same defect populations (shared seed).
"""

import pytest
from conftest import record

from repro.immunity import compare_techniques, format_comparison


@pytest.mark.parametrize("gate_name", ["NAND2", "NAND3"])
def test_immunity_monte_carlo(benchmark, gate_name):
    results = benchmark.pedantic(
        compare_techniques,
        kwargs=dict(gate_name=gate_name, trials=1000, cnts_per_trial=4,
                    seed=2009),
        iterations=1,
        rounds=1,
    )
    print()
    print(f"{gate_name}:")
    print(format_comparison(results))
    record(
        benchmark,
        gate=gate_name,
        engine="batch",
        trials=1000,
        vulnerable_failure_rate=round(results["vulnerable"].failure_rate, 3),
        baseline_failure_rate=results["baseline"].failure_rate,
        compact_failure_rate=results["compact"].failure_rate,
        paper_claim="immune layouts keep 100% functionality",
    )
    assert results["compact"].immune
    assert results["baseline"].immune
    assert results["vulnerable"].failure_rate > 0.0
