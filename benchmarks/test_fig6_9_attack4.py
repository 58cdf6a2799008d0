"""Fig 6.9 — droptail attack 4: SYN-drop a connecting host.

A handful of 40-byte drops cripples the victim (3 s+ connection setups)
yet χ's single-loss test pins them immediately.
"""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_9_attack4(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_9",),
                                rounds=1, iterations=1)
    lines = scenario_lines(result)
    lines.append(f"SYN retries forced: {result.extra.get('syn_retries')}")
    lines.append(f"mean setup time: {result.extra.get('mean_setup_time')}")
    save_series("fig6_9_attack4", lines)
    assert result.detected
    assert result.false_positives == 0
    # Tiny attack: a few packets, disproportionate damage.
    assert result.malicious_drops_truth <= 20
    assert result.extra.get("syn_retries", 0) >= 1
