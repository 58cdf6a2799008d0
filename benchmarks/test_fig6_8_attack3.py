"""Fig 6.8 — droptail attack 3: drop the selected flow at ≥95% queue.

The hardest droptail attack: the adversary leaves only a whisker of
space.  χ still resolves it (via the accumulated combined test), with
zero false positives.
"""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_8_attack3(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_8",),
                                rounds=1, iterations=1)
    save_series("fig6_8_attack3", scenario_lines(result))
    assert result.detected
    assert result.false_positives == 0
    assert result.malicious_drops_truth > 0
