"""Fig 6.16 — RED attack 5: SYN-drop behind a RED bottleneck.

Byte-mode RED almost never drops 40-byte SYNs, so each malicious SYN
drop is near-impossible under the reconstructed probabilities — the
RED single-packet test fires after a couple of them.
"""

from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def test_fig6_16_red_attack5(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig6_16",),
                                rounds=1, iterations=1)
    lines = scenario_lines(result)
    lines.append(f"SYN retries forced: {result.extra.get('syn_retries')}")
    save_series("fig6_16_red_attack5", lines)
    assert result.detected
    assert result.false_positives == 0
    assert result.malicious_drops_truth <= 30
