"""Fig 6.6 — droptail attack 1: drop 20% of the selected flow."""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_6_attack1(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_6",),
                                rounds=1, iterations=1)
    lines = scenario_lines(result)
    lines.append(f"victim goodput: "
                 f"{result.extra.get('victim_goodput_pps', 0):.1f} pps")
    lines.append(f"bystander goodput: "
                 f"{result.extra.get('bystander_goodput_pps', 0):.1f} pps")
    save_series("fig6_6_attack1", lines)
    assert result.detected
    assert result.metrics.detection_latency_rounds <= 2
    assert result.false_positives == 0
    assert result.malicious_drops_truth > 0
    # The paper's motivation panel: the selected flow visibly suffers.
    victim = result.extra["victim_goodput_pps"]
    bystander = result.extra["bystander_goodput_pps"]
    assert victim < bystander
