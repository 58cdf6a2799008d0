"""Fig 6.13 — RED attack 2: threshold 54 kB (rarer, subtler firing)."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_13_red_attack2(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_13",),
                                rounds=1, iterations=1)
    save_series("fig6_13_red_attack2", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
    # Subtler than attack 1: fewer malicious drops before detection.
    assert result.malicious_drops_truth < 100
