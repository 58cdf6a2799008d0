"""Fig 6.12 — RED attack 1: drop selected flows above a 45 kB average."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_12_red_attack1(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_12",),
                                rounds=1, iterations=1)
    save_series("fig6_12_red_attack1", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
    # Fine-grained: the malicious drops hide among many more RED drops.
    assert result.malicious_drops_truth < result.total_drops / 2
