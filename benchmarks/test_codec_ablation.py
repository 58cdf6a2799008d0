"""§2.4.1 ablation — summary exchange bandwidth vs detection power.

The paper discusses three ways to communicate content summaries: full
fingerprint sets, characteristic-polynomial set reconciliation
(optimal-bandwidth, Appendix A), and Bloom filters (constant size,
approximate).  This bench runs the same Πk+2 deployment with each codec
on the same attack and compares wire bytes and detection.
"""

from conftest import save_series

from repro.eval import ScenarioSpec, build_scenario


def run_codec(codec: str):
    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {"n": 5}},
        adversary={"behavior": "drop", "rate": 0.1},
        placement={"strategy": "fixed", "router": "r3"},
        traffic={"flows": 1, "rate_bps": 800_000, "duration": 6.0},
        detector="pik2", rounds=5,
        options={"endpoints": [["r1", "r5"]], "attack_at": 0.0,
                 "monitor": "all", "codec": codec})).run()
    protocol = scenario.protocol
    detected = any("r3" in seg
                   for seg in protocol.states["r1"].suspected_segments())
    return protocol.exchange_bytes, detected


def test_codec_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {codec: run_codec(codec)
                 for codec in ("full", "polynomial", "bloom")},
        rounds=1, iterations=1,
    )
    lines = ["codec       wire_bytes  detected"]
    for codec, (wire, detected) in results.items():
        lines.append(f"{codec:10s}  {wire:10d}  {detected}")
    save_series("codec_ablation", lines)

    # All codecs detect; polynomial is the bandwidth winner.
    assert all(detected for _, detected in results.values())
    full_bytes = results["full"][0]
    assert results["polynomial"][0] < full_bytes / 2
    assert results["bloom"][0] < full_bytes
