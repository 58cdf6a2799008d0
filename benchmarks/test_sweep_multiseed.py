"""Multi-seed sweep over Fig 6.6: detection robust across Monte-Carlo seeds.

The per-figure benches regenerate each result at one seed; this bench
uses the sweep engine to replicate Fig 6.6's attack across derived seeds
and asserts the paper's qualitative claims hold in distribution —
detected at every seed, zero false positives at every seed — writing
mean/median/CI aggregates alongside the single-seed series.  It sweeps
against a fresh cache, so every run misses and writes the same file.
"""

from conftest import save_series

from repro.sweep import SweepConfig, run_sweep

FIELDS = (
    "detected",
    "metrics.detection_latency_rounds",
    "metrics.false_positive_rounds",
    "malicious_drops_truth",
    "total_drops",
    "extra.victim_goodput_pps",
    "extra.bystander_goodput_pps",
)


def test_fig6_6_multiseed_sweep(benchmark, tmp_path):
    config = SweepConfig(seeds=3, jobs=2, root_seed=0,
                         cache_dir=str(tmp_path / "cache"))
    sweep = benchmark.pedantic(lambda: run_sweep("fig6_6", config),
                               rounds=1, iterations=1)
    aggregate = sweep.aggregate
    lines = [
        f"sweep: fig6_6 seeds={sweep.seeds} jobs={sweep.jobs} "
        f"root_seed={sweep.root_seed}",
        f"cache: {sweep.cache_hits} hits {sweep.cache_misses} misses",
        f"per-run seeds: {[r['seed'] for r in sweep.records]}",
    ]
    for field in FIELDS:
        stats = aggregate[field]
        lines.append(
            f"{field}: n={stats['n']} mean={stats['mean']:.3f} "
            f"median={stats['median']:.3f} std={stats['std']:.3f} "
            f"ci95={stats['ci95']:.3f}")
    save_series("fig6_6_multiseed_sweep", lines)

    assert aggregate["detected"]["mean"] == 1.0  # every seed detects
    assert aggregate["metrics.false_positive_rounds"]["max"] == 0.0
    assert aggregate["malicious_drops_truth"]["min"] > 0
    assert aggregate["detected"]["n"] == 3
