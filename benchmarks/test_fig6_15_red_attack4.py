"""Fig 6.15 — RED attack 4: 5% of selected flows above 45 kB.

The finest-grained RED attack; the cumulative per-flow statistics
accumulate evidence across rounds until the z-score clears 4σ.
"""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_15_red_attack4(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_15",),
                                rounds=1, iterations=1)
    save_series("fig6_15_red_attack4", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
