"""Fig 6.5 — droptail, no attack: χ is silent through real congestion."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_5_no_attack(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_5",),
                                rounds=1, iterations=1)
    save_series("fig6_5_no_attack", scenario_lines(result))
    assert result.false_positives == 0
    assert result.congestive_drops > 0  # congestion genuinely happened
    assert not result.detected
