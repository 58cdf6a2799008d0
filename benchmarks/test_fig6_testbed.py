"""Figs 6.5-6.9 and 6.11-6.16 — the χ testbed, one bench per figure.

Every figure is a row of ``repro.eval.experiments.TESTBED_ROWS`` run by
the same runner, so the benches are one table too: registry name →
(results file stem, extra report lines, the paper's qualitative shape).
Each run regenerates ``benchmarks/results/<stem>.txt``; no figure ever
raises a false positive.
"""

import pytest
from conftest import save_series, scenario_lines

from repro.eval.registry import run_experiment


def goodput_lines(result):
    return [f"victim goodput: "
            f"{result.extra.get('victim_goodput_pps', 0):.1f} pps",
            f"bystander goodput: "
            f"{result.extra.get('bystander_goodput_pps', 0):.1f} pps"]


def syn_retry_lines(result):
    return [f"SYN retries forced: {result.extra.get('syn_retries')}"]


def syn_setup_lines(result):
    return syn_retry_lines(result) + [
        f"mean setup time: {result.extra.get('mean_setup_time')}"]


def no_attack(result):
    """Fig 6.5 — droptail: χ is silent through real congestion."""
    assert not result.detected
    assert result.congestive_drops > 0  # congestion genuinely happened


def attack1(result):
    """Fig 6.6 — drop 20% of the selected flow."""
    assert result.detected
    assert result.metrics.detection_latency_rounds <= 2
    assert result.malicious_drops_truth > 0
    # The paper's motivation panel: the selected flow visibly suffers.
    assert (result.extra["victim_goodput_pps"]
            < result.extra["bystander_goodput_pps"])


def queue_attack(result):
    """Figs 6.7/6.8 — drop the selected flow at ≥90% / ≥95% queue.

    At 95% the adversary leaves only a whisker of space; χ still
    resolves it (via the accumulated combined test).
    """
    assert result.detected
    assert result.malicious_drops_truth > 0


def syn_attack(result):
    """Fig 6.9 — SYN-drop a connecting host: a handful of 40-byte drops
    cripples the victim (3 s+ connection setups) yet χ's single-loss
    test pins them immediately."""
    assert result.detected
    # Tiny attack: a few packets, disproportionate damage.
    assert result.malicious_drops_truth <= 20
    assert result.extra.get("syn_retries", 0) >= 1


def red_no_attack(result):
    """Fig 6.11 — RED: hundreds of RED drops, zero alarms."""
    assert not result.detected
    assert result.total_drops > 100  # RED was genuinely busy


def red_attack1(result):
    """Fig 6.12 — drop selected flows above a 45 kB average."""
    assert result.detected
    # Fine-grained: the malicious drops hide among many more RED drops.
    assert result.malicious_drops_truth < result.total_drops / 2


def red_attack2(result):
    """Fig 6.13 — threshold 54 kB (rarer, subtler firing)."""
    assert result.detected
    # Subtler than attack 1: fewer malicious drops before detection.
    assert result.malicious_drops_truth < 100


def red_fraction_attack(result):
    """Figs 6.14/6.15 — drop only 10% / 5% of selected flows above
    45 kB; the cumulative per-flow statistics accumulate evidence
    across rounds until the z-score clears 4σ."""
    assert result.detected


def red_syn_attack(result):
    """Fig 6.16 — SYN-drop behind a RED bottleneck: byte-mode RED almost
    never drops 40-byte SYNs, so the RED single-packet test fires after
    a couple of malicious ones."""
    assert result.detected
    assert result.malicious_drops_truth <= 30


def no_lines(result):
    return []


#: registry name -> (results stem, extra report lines, shape assertions)
FIGURES = {
    "fig6_5": ("fig6_5_no_attack", no_lines, no_attack),
    "fig6_6": ("fig6_6_attack1", goodput_lines, attack1),
    "fig6_7": ("fig6_7_attack2", no_lines, queue_attack),
    "fig6_8": ("fig6_8_attack3", no_lines, queue_attack),
    "fig6_9": ("fig6_9_attack4", syn_setup_lines, syn_attack),
    "fig6_11": ("fig6_11_red_no_attack", no_lines, red_no_attack),
    "fig6_12": ("fig6_12_red_attack1", no_lines, red_attack1),
    "fig6_13": ("fig6_13_red_attack2", no_lines, red_attack2),
    "fig6_14": ("fig6_14_red_attack3", no_lines, red_fraction_attack),
    "fig6_15": ("fig6_15_red_attack4", no_lines, red_fraction_attack),
    "fig6_16": ("fig6_16_red_attack5", syn_retry_lines, red_syn_attack),
}


@pytest.mark.parametrize("name", FIGURES)
def test_fig6_testbed(benchmark, name):
    stem, extra_lines, check_shape = FIGURES[name]
    result = benchmark.pedantic(run_experiment, args=(name,),
                                rounds=1, iterations=1)
    save_series(stem, scenario_lines(result) + extra_lines(result))
    assert result.false_positives == 0
    check_shape(result)
