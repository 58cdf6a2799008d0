"""Fig 6.11 — RED, no attack: hundreds of RED drops, zero alarms."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_11_red_no_attack(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_11",),
                                rounds=1, iterations=1)
    save_series("fig6_11_red_no_attack", scenario_lines(result))
    assert result.false_positives == 0
    assert not result.detected
    assert result.total_drops > 100  # RED was genuinely busy
