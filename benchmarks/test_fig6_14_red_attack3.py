"""Fig 6.14 — RED attack 3: drop only 10% of selected flows above 45 kB."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_14_red_attack3(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_14",),
                                rounds=1, iterations=1)
    save_series("fig6_14_red_attack3", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
