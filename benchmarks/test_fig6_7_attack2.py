"""Fig 6.7 — droptail attack 2: drop the selected flow at ≥90% queue."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_7_attack2(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_7",),
                                rounds=1, iterations=1)
    save_series("fig6_7_attack2", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
    assert result.malicious_drops_truth > 0
